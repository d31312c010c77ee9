// The generic coherency layer (paper sections 6.2 and 6.3).
//
// "The coherency layer implements a per-block multiple-readers/single-
// writer coherency protocol ... The coherency layer also caches file
// attributes using the operations provided by the fs_cache and fs_pager
// interfaces."
//
// The layer stacks on exactly one underlying file system. For every file it
// exports it:
//   * acts as a *pager* to its clients (VMMs and higher layers), running
//     the MRSW protocol across their cache objects via CoherencyEngine;
//   * acts as a *cache manager* to the layer below (Figure 4's C3-P3
//     connection), holding its own block and attribute caches filled
//     through the underlying pager object;
//   * implements file read/write against its own cache, so cached
//     operations complete with no calls to the lower layer (the paper's
//     third Table 2 observation).
//
// The client half (the exported file, the client pager entry points) is
// the shared CachedFile<CoherencyLayer> (src/fs/cached_file.h), and its
// naming and Fs ops are the shared StackedLayer's (src/fs/stacked_layer.h);
// this layer supplies the lower half: pages through the lower pager object,
// attributes through fs_pager.
//
// "Using the coherency layer, we can construct coherent file system stacks
// out of non-coherent layers" (section 6.3): stacking this layer on the
// non-coherent disk layer yields Spring SFS (Figure 10).
//
// Options.cache_data / cache_attrs reproduce Table 2's "Cached by Coherency
// Layer?" axis: with caching off, every read/write/stat is delegated to the
// lower layer.

#ifndef SPRINGFS_LAYERS_COHERENT_COHERENCY_LAYER_H_
#define SPRINGFS_LAYERS_COHERENT_COHERENCY_LAYER_H_

#include <atomic>
#include <map>

#include "src/fs/cached_file.h"
#include "src/fs/channel_table.h"
#include "src/fs/stacked_layer.h"
#include "src/obj/domain.h"
#include "src/obs/metrics.h"
#include "src/support/clock.h"

namespace springfs {

struct CoherencyLayerOptions {
  bool cache_data = true;
  bool cache_attrs = true;
  // Read-ahead (paper section 8, future work): on a client page-in the
  // layer may "return more data than strictly needed" — up to this many
  // extra sequential pages, clamped to the file length. 0 disables.
  uint32_t read_ahead_pages = 0;
};

class CoherencyLayer : public StackedLayer, public metrics::StatsProvider {
 public:
  static sp<CoherencyLayer> Create(sp<Domain> domain,
                                   CoherencyLayerOptions options = {},
                                   Clock* clock = &DefaultClock());
  ~CoherencyLayer() override;

  const char* interface_name() const override { return "coherency_layer"; }

  // --- StatsProvider ---
  std::string stats_prefix() const override { return "layer/" + type_name(); }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

  // Zeroes the cache accounting (bench phase isolation).
  void ResetStats();

  // Channels that cache managers above have bound to this layer's files.
  size_t num_client_channels() const { return client_channels_.NumChannels(); }

 protected:
  CoherencyLayer(sp<Domain> domain, CoherencyLayerOptions options,
                 Clock* clock);

  // Transform hooks at the lower-layer boundary. The coherency layer itself
  // is an identity transform; subclasses (the encryption layer, the
  // pass-through layer) override these to translate between the
  // representation exported to clients and the representation stored in
  // the underlying file system. Transforms must be size-preserving per
  // page and self-inverse under Encode∘Decode; the compression layer,
  // which is not size-preserving, shares only the client half (COMPFS).
  //
  // `page` holds exactly one kPageSize page at `page_offset` of the file
  // identified by `file_id`.
  virtual Result<Buffer> DecodeFromBelow(uint64_t file_id, Offset page_offset,
                                         Buffer page) {
    (void)file_id;
    (void)page_offset;
    return page;
  }
  virtual Result<Buffer> EncodeForBelow(uint64_t file_id, Offset page_offset,
                                        Buffer page) {
    (void)file_id;
    (void)page_offset;
    return page;
  }
  // Layer type name reported in FsInfo ("coherency", "cryptfs", ...).
  std::string type_name() const override { return "coherency"; }

 private:
  friend class CachedFile<CoherencyLayer>;
  friend class LayerPager<CoherencyLayer>;
  friend class CoherencyLowerCacheObject;

  // Names of the cached file's op timers and trace spans.
  static constexpr const char* kTimerPrefix = "layer/coherent";
  static constexpr const char* kSpanPrefix = "coh";

  // Everything the layer knows about one exported file.
  struct FileState : CachedFileState {
    FileState() : CachedFileState("coherency-layer") {}
    sp<File> under;  // the underlying layer's file object
  };

  sp<CoherencyLayer> Self() {
    return std::dynamic_pointer_cast<CoherencyLayer>(shared_from_this());
  }

  // --- StackedLayer hooks (src/fs/stacked_layer.h) ---
  // One CachedFile per lower file object, whatever name reached it.
  Result<sp<File>> WrapFile(const Name& name, const sp<File>& under) override;
  Result<sp<Object>> UnwrapForBind(sp<Object> object) override;
  // Purges the file's state once its last link is gone (its Stat fails):
  // a renamed or hard-linked file keeps its cached state.
  void Unbound(const Name& name, const sp<Object>& below) override;
  // Stores every file's dirty pages and attributes below.
  Status SyncOwn() override;

  sp<FileState> StateForFile(const sp<File>& under);
  // Each block a recall hands the layer below, run through EncodeForBelow.
  Result<std::vector<BlockData>> EncodeForRecall(const FileState& state,
                                                 std::vector<BlockData> blocks);

  // --- CachedFile hooks (src/fs/cached_file.h) ---
  // Binds `state` to the underlying file unless already bound, before any
  // client bind and any direct read or write.
  Status EnsureBoundBelow(const sp<FileState>& state);
  Status EnsureBoundForIo(const sp<FileState>& state) {
    return EnsureBoundBelow(state);
  }
  // Table 2's "Cached by Coherency Layer?" axis: with caching off, the
  // lower file serves the op.
  File* UncachedData(FileState& state) const {
    return options_.cache_data ? nullptr : state.under.get();
  }
  File* UncachedAttrs(FileState& state) const {
    return options_.cache_attrs ? nullptr : state.under.get();
  }
  uint32_t read_ahead_pages() const { return options_.read_ahead_pages; }
  Status LoadAttributes(FileState& state);
  // Fetches [begin, begin+len) through the lower pager and runs
  // DecodeFromBelow on each page; len must be page-aligned.
  Result<Buffer> FillPages(FileState& state, Offset begin, Offset len,
                           AccessRights* access);
  // Runs EncodeForBelow on each page of each run and syncs it below.
  Status StorePages(FileState& state, const std::vector<PageRun>& runs);
  Status StoreAttributes(FileState& state, const AttrUpdate& update);
  Status SyncBelow(FileState& state) { return state.under->SyncFile(); }
  // The lower file is cut when the new size is stored.
  Status CutBelow(FileState&, Offset) { return Status::Ok(); }

  // Lower-cache-object entry points (callbacks from the layer below).
  Result<std::vector<BlockData>> LowerFlushBack(FileState& state, Range range);
  Result<std::vector<BlockData>> LowerDenyWrites(FileState& state, Range range);

  CoherencyLayerOptions options_;
  Clock* clock_;

  std::mutex mutex_;  // protects the maps below (never held across lower calls)
  std::map<Object*, sp<CachedFile<CoherencyLayer>>> wrapped_files_;
  std::map<uint64_t, sp<FileState>> states_;  // by file_id
  uint64_t next_file_id_ = 1;
  PagerChannelTable client_channels_;

  // Cache accounting; published via CollectStats.
  CachedFileStats cache_stats_;
  std::atomic<uint64_t> lower_page_ins_{0};
  std::atomic<uint64_t> lower_page_outs_{0};
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_COHERENT_COHERENCY_LAYER_H_
