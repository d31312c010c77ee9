// The cache-manager end of a stacked layer's bind to the layer below
// (paper sections 3.3.2 and 4.2; Figure 4's C3-P3 connection).
//
// Bind on a memory object sets up the pager-object/cache-object channel;
// a layer that caches a lower file, or must hear about coherency actions
// on it, binds that file as its cache manager.
// LowerChannel is that cache manager, one per file of the layer: the layer
// passes it to under->Bind, so EstablishChannel knows which file is being
// bound without any layer-wide lookup. It keeps the lower pager object and
// its fs_pager narrow for the layer's data and attribute paths.
//
// The layer's cache object is built by a callable the channel holds only
// while the exchange runs. Afterwards the channel references neither the
// layer nor the file state, so the file state can own it without an sp<>
// cycle. Concurrent first binds of one file are serialised per file and
// make exactly one channel below. When the layer below tears the channel
// down (DestroyCache on the layer's cache object), the layer calls Drop()
// and the next Ensure binds afresh.

#ifndef SPRINGFS_FS_LOWER_CHANNEL_H_
#define SPRINGFS_FS_LOWER_CHANNEL_H_

#include <functional>
#include <mutex>
#include <string>

#include "src/fs/fs_objects.h"

namespace springfs {

class LowerChannel final : public CacheManager {
 public:
  explicit LowerChannel(const char* manager_name) : name_(manager_name) {}

  // Binds `below` with this channel as its cache manager, unless the
  // channel is already up. `make_cache` builds the layer's cache object;
  // it runs only when the layer below establishes a new channel. The
  // already-bound check takes only this file's channel lock and allocates
  // nothing.
  template <typename MakeCache>
  Status Ensure(MemoryObject& below, MakeCache&& make_cache) {
    if (bound()) {
      return Status::Ok();
    }
    return Exchange(below, std::forward<MakeCache>(make_cache));
  }

  bool bound() const;

  // The lower pager object; kStale when the channel is down.
  Result<sp<PagerObject>> pager() const;
  // Its fs_pager narrow; null when the channel is down or the layer below
  // is not a file system.
  sp<FsPagerObject> fs_pager() const;

  // Forgets the channel: the layer below destroyed it.
  void Drop();

  // --- CacheManager ---
  Result<ChannelSetup> EstablishChannel(uint64_t pager_key,
                                        sp<PagerObject> pager) override;
  std::string cache_manager_name() const override { return name_; }

 private:
  using MakeCacheFn = std::function<sp<CacheObject>()>;

  Status Exchange(MemoryObject& below, const MakeCacheFn& make_cache);

  const char* name_;
  // Held across under->Bind: serialises the first binds of this file.
  std::mutex exchange_mutex_;
  // Guards the fields below; never held across a call.
  mutable std::mutex mutex_;
  const MakeCacheFn* make_cache_ = nullptr;  // set while Exchange runs
  bool bound_ = false;
  sp<PagerObject> pager_;
  sp<FsPagerObject> fs_pager_;
};

}  // namespace springfs

#endif  // SPRINGFS_FS_LOWER_CHANNEL_H_
