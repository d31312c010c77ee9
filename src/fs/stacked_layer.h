// The stacked layer, written once (paper section 4.4, Figure 8): a
// stackable_fs that *is* a naming context stacked on exactly one file
// system below it.
//
// StackedLayer implements the naming and Fs ops of such a layer over the
// one lower file system `under_`: the empty name resolves to the layer
// itself, a lower file is handed out wrapped in the layer's own file, a
// lower directory as a PrefixContext over this layer, ListAt lists below
// with the layer's shadow files hidden, GetFsInfo names the layer
// "<type>(<below>)" one level deeper, and SyncFs runs the layer's own sync
// before the layer below syncs. Every op fails while the layer is not
// stacked. A layer supplies only these hooks:
//
//   type_name()            the FsInfo type ("coherency", "compfs", ...)
//   WrapFile(name, under)  the layer's file for the lower file `under`,
//                          reached at layer-relative `name`
//   UnwrapForBind(object)  what Bind passes below for `object` (the lower
//                          file for one of the layer's own files), or an
//                          error when such a file cannot be bound
//   shadow_suffix()        the suffix of the per-file shadow files the layer
//                          keeps below ("" for none)
//   Unbound(name, below)   after a successful Unbind: drop the layer's state
//                          for `name`; `below` is what it named below
//   SyncOwn()              the layer's own sync, before the layer below's
//
// A name whose last component is a shadow name is refused by every op:
// Resolve and Unbind report it absent (kNotFound); Bind, CreateContext and
// CreateFile refuse to make it (kInvalidArgument). Unbind removes the
// name's shadow with it.

#ifndef SPRINGFS_FS_STACKED_LAYER_H_
#define SPRINGFS_FS_STACKED_LAYER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/fs/file.h"
#include "src/obj/domain.h"

namespace springfs {

class StackedLayer : public StackableFs, public Servant {
 public:
  // --- Context ---
  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override;
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace = false) override;
  Status Unbind(const Name& name, const Credentials& creds) override;
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override;
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override;
  // List of the directory at layer-relative `prefix`, shadow files hidden
  // (PrefixContext::List).
  Result<std::vector<BindingInfo>> ListAt(const Name& prefix,
                                          const Credentials& creds);

  // --- StackableFs ---
  Status StackOn(sp<StackableFs> underlying) override;
  Result<sp<File>> CreateFile(const Name& name,
                              const Credentials& creds) override;

  // --- Fs ---
  Result<FsInfo> GetFsInfo() override;
  Status SyncFs() override;

 protected:
  explicit StackedLayer(sp<Domain> domain, sp<StackableFs> under = nullptr)
      : Servant(std::move(domain)), under_(std::move(under)) {}

  // --- hooks (see the file comment) ---
  virtual std::string type_name() const = 0;
  virtual Result<sp<File>> WrapFile(const Name& name,
                                    const sp<File>& under) = 0;
  virtual Result<sp<Object>> UnwrapForBind(sp<Object> object) {
    return object;
  }
  virtual std::string_view shadow_suffix() const { return {}; }
  virtual void Unbound(const Name&, const sp<Object>&) {}
  virtual Status SyncOwn() { return Status::Ok(); }

  // The shadow file of layer-relative file `name` in the layer below.
  Name ShadowNameFor(const Name& name) const;

  sp<StackableFs> under_;

 private:
  bool IsShadowName(std::string_view component) const;
  bool NamesShadow(const Name& name) const {
    return !name.empty() && IsShadowName(name.back());
  }
  Status CheckStacked() const;
  sp<StackedLayer> Self() {
    return std::dynamic_pointer_cast<StackedLayer>(shared_from_this());
  }
};

}  // namespace springfs

#endif  // SPRINGFS_FS_STACKED_LAYER_H_
