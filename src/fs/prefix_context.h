// The one sub-directory context every layer hands out (paper section 4.4:
// a stackable_fs *is* a naming context).
//
// A layer implements each naming operation once, on its root, over
// layer-relative names. A directory below the root is a PrefixContext: the
// layer plus the directory's name from the layer root. Each operation
// forwards to the layer's root operation with prefix.Join(name); List
// forwards to Layer::ListAt(prefix, creds). So a held directory context
// names a path, not an inode or a lower-layer object: it sees whatever is
// bound at that path when each operation runs.

#ifndef SPRINGFS_FS_PREFIX_CONTEXT_H_
#define SPRINGFS_FS_PREFIX_CONTEXT_H_

#include <vector>

#include "src/naming/context.h"
#include "src/obj/domain.h"

namespace springfs {

template <typename Layer>
class PrefixContext final : public Context, public Servant {
 public:
  PrefixContext(sp<Layer> layer, Name prefix)
      : Servant(layer->domain()), layer_(std::move(layer)),
        prefix_(std::move(prefix)) {}

  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override {
    return layer_->Resolve(prefix_.Join(name), creds);
  }
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace) override {
    return layer_->Bind(prefix_.Join(name), std::move(object), creds,
                        replace);
  }
  Status Unbind(const Name& name, const Credentials& creds) override {
    return layer_->Unbind(prefix_.Join(name), creds);
  }
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override {
    return layer_->ListAt(prefix_, creds);
  }
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override {
    return layer_->CreateContext(prefix_.Join(name), creds);
  }

 private:
  sp<Layer> layer_;
  Name prefix_;
};

// The context for directory `path` of `layer`.
template <typename Layer>
sp<Context> MakePrefixContext(sp<Layer> layer, Name path) {
  return std::make_shared<PrefixContext<Layer>>(std::move(layer),
                                                std::move(path));
}

// Lists directory `path` of the context `below` (`below` itself at the
// empty path): the lower half of a stacked layer's ListAt.
inline Result<std::vector<BindingInfo>> ListBelow(Context& below,
                                                  const Name& path,
                                                  const Credentials& creds) {
  if (path.empty()) {
    return below.List(creds);
  }
  ASSIGN_OR_RETURN(sp<Object> object, below.Resolve(path, creds));
  sp<Context> dir = narrow<Context>(object);
  if (!dir) {
    return ErrNotADirectory("'" + path.ToString() + "' is not a directory");
  }
  return dir->List(creds);
}

}  // namespace springfs

#endif  // SPRINGFS_FS_PREFIX_CONTEXT_H_
