// COMPFS: the compression file system layer (paper section 4.2.1,
// Figures 5 and 6).
//
// "We can use COMPFS to save disk space by compressing all data before
// writing it out and by uncompressing all data read from the disk. Since we
// are not interested in rewriting an on-disk file system, we can implement
// COMPFS as a layer on top of a base file system."
//
// Like the coherency layer, COMPFS is a pager to the caches above it and
// exports the shared client half, CachedFile<CompLayer>
// (src/fs/cached_file.h): decompressed pages and attributes cached per
// file, the MRSW protocol across client caches, attribute invalidations to
// the caches bound above; and the naming and Fs ops of the shared
// StackedLayer (src/fs/stacked_layer.h). Only its lower half differs.
// Compression is not size-preserving, so a page does not map 1:1 onto a
// page below: each COMPFS file is backed by TWO underlying files (the
// paper: "There need not
// be a one-to-one correspondence between the files exported by a given
// layer and its underlying layers"):
//
//   <name>        — an append-only chunk store of compressed blocks
//   <name>.cmeta  — header + per-logical-block chunk table
//
// A page is filled by decompressing its chunk, stored by appending a fresh
// chunk, and the attributes live in the .cmeta header.
//
// Incompressible blocks are stored raw (flagged in the table). Rewritten
// blocks append a fresh chunk and orphan the old one; Compact() rewrites
// the chunk store to reclaim the garbage (invoked explicitly or by SyncFs
// when waste exceeds a threshold).
//
// The two stacking modes of the paper:
//   Figure 5 (options.coherent_lower = false): COMPFS accesses underlying
//     files through their read/write interface only. Mappings of the
//     COMPFS file and direct access to the underlying file are NOT
//     coherent with each other.
//   Figure 6 (options.coherent_lower = true): when a client binds a COMPFS
//     file, COMPFS additionally binds to the underlying data file as a
//     *cache manager* (the C3-P3 connection), so the layer below engages
//     COMPFS in its coherency protocol and direct writes to the underlying
//     file invalidate COMPFS's caches.

#ifndef SPRINGFS_LAYERS_COMPFS_COMP_LAYER_H_
#define SPRINGFS_LAYERS_COMPFS_COMP_LAYER_H_

#include <atomic>
#include <map>

#include "src/codec/codec.h"
#include "src/fs/cached_file.h"
#include "src/fs/channel_table.h"
#include "src/fs/stacked_layer.h"
#include "src/obj/domain.h"
#include "src/obs/metrics.h"
#include "src/support/clock.h"

namespace springfs {

struct CompLayerOptions {
  std::string codec = "lz77";
  bool coherent_lower = true;  // Figure 6 vs. Figure 5
  // SyncFs compacts a file when chunk-store bytes exceed live bytes by this
  // factor.
  double compact_waste_factor = 2.0;
};

class CompLayer : public StackedLayer, public metrics::StatsProvider {
 public:
  static sp<CompLayer> Create(sp<Domain> domain, CompLayerOptions options = {},
                              Clock* clock = &DefaultClock());
  ~CompLayer() override;

  const char* interface_name() const override { return "comp_layer"; }

  // Rewrites a file's chunk store, dropping orphaned chunks. Returns bytes
  // reclaimed.
  Result<uint64_t> Compact(const Name& name, const Credentials& creds);

  // --- StatsProvider ---
  std::string stats_prefix() const override { return "layer/compfs"; }
  void CollectStats(const metrics::StatsEmitter& emit) const override;

  // Zeroes the codec accounting (bench phase isolation).
  void ResetStats();

 private:
  friend class CachedFile<CompLayer>;
  friend class LayerPager<CompLayer>;
  friend class CompLowerCacheObject;

  // Names of the cached file's op timers and trace spans.
  static constexpr const char* kTimerPrefix = "layer/compfs";
  static constexpr const char* kSpanPrefix = "compfs";

  CompLayer(sp<Domain> domain, CompLayerOptions options, Clock* clock);

  // Codec accounting; published via CollectStats.
  struct Stats {
    std::atomic<uint64_t> blocks_compressed{0};
    std::atomic<uint64_t> blocks_decompressed{0};
    std::atomic<uint64_t> blocks_stored_raw{0};
    std::atomic<uint64_t> bytes_stored{0};  // chunk bytes appended
    std::atomic<uint64_t> compactions{0};
    std::atomic<uint64_t> lower_invalidations{0};  // callbacks from below
  };

  // One chunk-table entry: where a logical block lives in the chunk store.
  struct ChunkEntry {
    uint64_t offset = 0;  // byte offset in the underlying data file
    uint32_t length = 0;  // 0 = hole (reads as zeros)
    bool raw = false;     // stored uncompressed
  };

  // The cached state's attributes are the .cmeta header's: valid once the
  // table is loaded, dirty while the table or header needs storing.
  struct FileState : CachedFileState {
    FileState() : CachedFileState("compfs") {}
    sp<File> under_data;  // chunk store
    sp<File> under_meta;  // serialized header + table
    std::string name;     // for diagnostics and compaction
    uint64_t next_free = 0;         // append position in the chunk store
    std::vector<ChunkEntry> table;  // indexed by logical block
  };

  sp<CompLayer> Self() {
    return std::dynamic_pointer_cast<CompLayer>(shared_from_this());
  }

  // --- StackedLayer hooks (src/fs/stacked_layer.h) ---
  std::string type_name() const override { return "compfs"; }
  // One CachedFile per name; finds or creates the name's .cmeta shadow.
  Result<sp<File>> WrapFile(const Name& name,
                            const sp<File>& under_data) override;
  // The chunk table lives in the name's shadow, so a COMPFS file cannot be
  // bound under a second name.
  Result<sp<Object>> UnwrapForBind(sp<Object> object) override;
  std::string_view shadow_suffix() const override { return ".cmeta"; }
  void Unbound(const Name& name, const sp<Object>&) override;
  // Stores every file's dirty state, compacting chunk stores that outgrew
  // their live data.
  Status SyncOwn() override;

  // --- CachedFile hooks (src/fs/cached_file.h) ---
  // Figure 6: binds the data file below when a client binds, unless
  // already bound; a new channel drops the clean derived caches, which
  // were filled through the file interface with no holdings registered
  // below.
  Status EnsureBoundBelow(const sp<FileState>& state);
  // Direct reads and writes use the file interface until a client binds:
  // compaction shrinks the data file, and on a bound channel the layer
  // below would call back into the file state compaction holds locked.
  Status EnsureBoundForIo(const sp<FileState>&) { return Status::Ok(); }
  // COMPFS always caches.
  File* UncachedData(FileState&) const { return nullptr; }
  File* UncachedAttrs(FileState&) const { return nullptr; }
  uint32_t read_ahead_pages() const { return 0; }
  // Loads the .cmeta header and chunk table.
  Status LoadAttributes(FileState& state);
  // Decompresses each page's chunk; the pages are held read-write.
  Result<Buffer> FillPages(FileState& state, Offset begin, Offset len,
                           AccessRights* access);
  // Appends a chunk per page, then stores the table that reaches them.
  Status StorePages(FileState& state, const std::vector<PageRun>& runs);
  Status StoreAttributes(FileState& state, const AttrUpdate&) {
    return StoreMeta(state);
  }
  Status SyncBelow(FileState& state);
  // Drops the table entries past the new EOF (their chunks become garbage).
  Status CutBelow(FileState& state, Offset length);

  // .cmeta serialization; state.mutex held.
  Status StoreMeta(FileState& state);

  // Block access; state.mutex held.
  Result<Buffer> LoadBlock(FileState& state, uint64_t block_index);
  Status StoreBlock(FileState& state, uint64_t block_index, ByteSpan page);
  Status CompactLocked(FileState& state, uint64_t* reclaimed);

  // Reads/writes bytes of the underlying data file, via the pager channel
  // when bound below (Figure 6) or the file interface otherwise (Figure 5).
  Result<size_t> LowerRead(FileState& state, Offset offset,
                           MutableByteSpan out);
  Status LowerWrite(FileState& state, Offset offset, ByteSpan data);

  // Lower coherency callbacks (Figure 6): drop caches.
  Status LowerInvalidate(FileState& state);
  // Drops the clean pages and the table decoded from below; state.mutex
  // held.
  void DropDerivedCaches(FileState& state);

  CompLayerOptions options_;
  const Codec* codec_;
  Clock* clock_;

  std::mutex mutex_;
  // By full path.
  std::map<std::string, sp<CachedFile<CompLayer>>> wrapped_files_;
  uint64_t next_file_id_ = 1;
  PagerChannelTable client_channels_;

  CachedFileStats cache_stats_;
  Stats stats_;
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_COMPFS_COMP_LAYER_H_
