// FusedSfs: a single-layer Spring file system — Table 2's "Not stacked"
// configuration.
//
// The paper's stacking-overhead table compares the two-layer SFS against a
// file system "that does not use stacking": one Spring server implementing
// caching and disk access in a single layer. FusedSfs is that baseline: it
// exports the same File/Context interfaces as every other layer (clients
// still pay one object invocation at the top), but internally makes plain
// function calls into an integrated buffer/name/attribute cache (MonoFs)
// — there is no inter-layer pager-cache machinery at all.
//
// Note the difference from MONOFS used for Table 3: MONOFS is driven by
// direct function calls with no object layer whatsoever (the "SunOS"
// stand-in); FusedSfs is a proper Spring server, just unstacked.

#ifndef SPRINGFS_LAYERS_MONOFS_FUSED_SFS_H_
#define SPRINGFS_LAYERS_MONOFS_FUSED_SFS_H_

#include "src/layers/monofs/mono_fs.h"
#include "src/obj/domain.h"

namespace springfs {

class FusedSfs : public StackableFs, public Servant {
 public:
  static Result<sp<FusedSfs>> Format(sp<Domain> domain, BlockDevice* device,
                                     Clock* clock = &DefaultClock());

  const char* interface_name() const override { return "fused_sfs"; }

  // --- Context ---
  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override;
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace = false) override;
  Status Unbind(const Name& name, const Credentials& creds) override;
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override;
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override;
  // Listing is not offered at any prefix (PrefixContext::List).
  Result<std::vector<BindingInfo>> ListAt(const Name& prefix,
                                          const Credentials& creds);

  // --- StackableFs ---
  Status StackOn(sp<StackableFs> underlying) override;
  Result<sp<File>> CreateFile(const Name& name,
                              const Credentials& creds) override;

  // --- Fs ---
  Result<FsInfo> GetFsInfo() override;
  Status SyncFs() override;

 private:
  friend class FusedFile;

  FusedSfs(sp<Domain> domain, std::unique_ptr<MonoFs> fs);

  // The object at `name`: its open FusedFile, or on a miss a new one, or
  // the directory's PrefixContext.
  Result<sp<Object>> ObjectFor(const Name& name);

  std::unique_ptr<MonoFs> fs_;
  std::mutex mutex_;
  // Weak: every FusedFile holds the FusedSfs, so a strong table would keep
  // an SFS that ever opened a file alive forever.
  std::map<std::string, std::weak_ptr<File>> open_files_;
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_MONOFS_FUSED_SFS_H_
