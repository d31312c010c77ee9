// The one client pager of a caching stacked layer (paper section 4.2: a
// layer is a pager to the cache managers above it while it is a cache
// manager to the layer below).
//
// A LayerPager is the layer's end of one client channel: the pager object
// a VMM or a higher layer receives from bind. Each operation forwards, in
// the layer's domain, to the shared client half of the layer's file
// (src/fs/cached_file.h) for the file and channel:
//
//   PageIn                  -> CachedFile<Layer>::ClientPageIn
//   PageOut/WriteOut/Sync   -> CachedFile<Layer>::ClientPageWrite
//   GetAttributes           -> CachedFile<Layer>::ClientGetAttributes
//   WriteAttributes         -> CachedFile<Layer>::ClientWriteAttributes

#ifndef SPRINGFS_FS_LAYER_PAGER_H_
#define SPRINGFS_FS_LAYER_PAGER_H_

#include <mutex>

#include "src/fs/channel_table.h"
#include "src/obj/domain.h"

namespace springfs {

template <typename Layer>
class CachedFile;

template <typename Layer>
class LayerPager final : public FsPagerObject, public Servant {
 public:
  using State = typename Layer::FileState;
  using Core = CachedFile<Layer>;

  LayerPager(sp<Layer> layer, sp<State> state, uint64_t channel)
      : Servant(layer->domain()), layer_(std::move(layer)),
        state_(std::move(state)), channel_(channel) {}

  // Services a client's bind of `state`'s file: finds or makes `caller`'s
  // channel, with a LayerPager as this layer's end, and enrols its cache in
  // the file's coherency engine.
  static Result<sp<CacheRights>> BindClient(const sp<Layer>& layer,
                                            const sp<State>& state,
                                            const sp<CacheManager>& caller) {
    ASSIGN_OR_RETURN(
        sp<CacheRights> rights,
        layer->client_channels_.Bind(
            state->file_id, state->pager_key, caller,
            [&](uint64_t local_id) -> sp<PagerObject> {
              return std::make_shared<LayerPager>(layer, state, local_id);
            }));
    std::lock_guard<std::mutex> lock(state->mutex);
    for (const auto& ch :
         layer->client_channels_.ChannelsForFile(state->file_id)) {
      if (!state->engine.HasCache(ch.local_id)) {
        state->engine.AddCache(ch.local_id, ch.cache);
      }
    }
    return rights;
  }

  Result<Buffer> PageIn(Offset offset, Offset size,
                        AccessRights access) override {
    return InDomain([&] {
      return Core::ClientPageIn(*layer_, *state_, channel_, offset, size,
                                access);
    });
  }
  Status PageOut(Offset offset, ByteSpan data) override {
    return InDomain([&] {
      return Core::ClientPageWrite(*layer_, *state_, channel_, offset, data,
                                   /*drops=*/true, /*downgrades=*/false,
                                   /*push_below=*/false);
    });
  }
  Status WriteOut(Offset offset, ByteSpan data) override {
    return InDomain([&] {
      return Core::ClientPageWrite(*layer_, *state_, channel_, offset, data,
                                   /*drops=*/false, /*downgrades=*/true,
                                   /*push_below=*/false);
    });
  }
  Status Sync(Offset offset, ByteSpan data) override {
    return InDomain([&] {
      return Core::ClientPageWrite(*layer_, *state_, channel_, offset, data,
                                   /*drops=*/false, /*downgrades=*/false,
                                   /*push_below=*/true);
    });
  }
  void DoneWithPagerObject() override {
    InDomain([&] {
      std::lock_guard<std::mutex> lock(state_->mutex);
      state_->engine.RemoveCache(channel_);
      layer_->client_channels_.RemoveChannel(channel_);
    });
  }

  Result<FileAttributes> GetAttributes() override {
    return InDomain(
        [&] { return Core::ClientGetAttributes(*layer_, *state_); });
  }
  Status WriteAttributes(const AttrUpdate& update) override {
    return InDomain([&] {
      return Core::ClientWriteAttributes(*layer_, *state_, channel_, update);
    });
  }

 private:
  sp<Layer> layer_;
  sp<State> state_;
  uint64_t channel_;
};

}  // namespace springfs

#endif  // SPRINGFS_FS_LAYER_PAGER_H_
