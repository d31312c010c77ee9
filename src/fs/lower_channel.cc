#include "src/fs/lower_channel.h"

namespace springfs {

bool LowerChannel::bound() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bound_;
}

Result<sp<PagerObject>> LowerChannel::pager() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!bound_) {
    return ErrStale("file not bound to the layer below");
  }
  return pager_;
}

sp<FsPagerObject> LowerChannel::fs_pager() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bound_ ? fs_pager_ : nullptr;
}

void LowerChannel::Drop() {
  sp<PagerObject> dropped;
  std::lock_guard<std::mutex> lock(mutex_);
  bound_ = false;
  dropped = std::move(pager_);
  fs_pager_ = nullptr;
}

Status LowerChannel::Exchange(MemoryObject& below,
                              const MakeCacheFn& make_cache) {
  std::lock_guard<std::mutex> exchange(exchange_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (bound_) {
      return Status::Ok();  // another thread's exchange got there first
    }
    make_cache_ = &make_cache;
  }
  Result<sp<CacheRights>> rights = below.Bind(
      std::dynamic_pointer_cast<CacheManager>(shared_from_this()),
      AccessRights::kReadWrite);
  std::lock_guard<std::mutex> lock(mutex_);
  make_cache_ = nullptr;
  RETURN_IF_ERROR(rights.status());
  // A bind that failed after the exchange leaves pager_ set and the channel
  // registered below; the retry finds that channel and completes here.
  if (!pager_) {
    return ErrInvalidArgument("the layer below did not establish a channel");
  }
  bound_ = true;
  return Status::Ok();
}

Result<CacheManager::ChannelSetup> LowerChannel::EstablishChannel(
    uint64_t pager_key, sp<PagerObject> pager) {
  const MakeCacheFn* make_cache;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (make_cache_ == nullptr) {
      return ErrInvalidArgument(
          "unexpected channel establishment (no bind in progress)");
    }
    make_cache = make_cache_;
    fs_pager_ = narrow<FsPagerObject>(pager);
    pager_ = std::move(pager);
  }
  ChannelSetup setup;
  setup.cache = (*make_cache)();
  setup.rights = std::make_shared<ChannelRights>(pager_key);
  return setup;
}

}  // namespace springfs
