// The client half of a caching stacked layer, written once (paper sections
// 4.2, 6.2 and 6.3): a layer is a pager to the caches above it and a cache
// manager to the layer below.
//
// CachedFile<Layer> is the file such a layer exports. It serves the File
// ops from the layer's own per-file page and attribute cache, runs the
// multiple-readers/single-writer protocol across the client caches bound
// to the file (the file's CoherencyEngine), and implements the Client*
// entry points that the layer's client pager, LayerPager<Layer>, forwards
// to. The coherency layer (and through it CRYPTFS and PASSFS) and COMPFS
// share it; each keeps only its lower half, as these hooks (called with
// state.mutex held unless marked unlocked):
//
//   EnsureBoundBelow(sp<State>)   unlocked; before a client binds the file
//   EnsureBoundForIo(sp<State>)   unlocked; before a direct Read or Write
//   UncachedData(State&)          the lower file that serves Read/Write
//   UncachedAttrs(State&)         (resp. the attribute ops) directly when
//                                 the layer does not cache them, else null
//   read_ahead_pages()            extra pages a client page-in may return
//   LoadAttributes(State&)        fills state.attrs from below
//   FillPages(State&, begin, len, &rights)
//                                 the plaintext of whole pages from below;
//                                 may raise `rights` to those it now holds
//   StorePages(State&, runs)      writes whole pages below
//   StoreAttributes(State&, update)
//                                 writes attributes below
//   SyncBelow(State&)             unlocked; makes the stores durable below
//   CutBelow(State&, length)      a truncate's cut of the layer's block map
//
// plus the fields `clock_`, `client_channels_` (a PagerChannelTable) and
// `cache_stats_` (CachedFileStats). Layer::FileState derives from
// CachedFileState. The layer befriends CachedFile<Layer> and
// LayerPager<Layer>.

#ifndef SPRINGFS_FS_CACHED_FILE_H_
#define SPRINGFS_FS_CACHED_FILE_H_

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/coherency/engine.h"
#include "src/fs/file.h"
#include "src/fs/layer_pager.h"
#include "src/fs/lower_channel.h"
#include "src/obs/metrics.h"

namespace springfs {

struct CachedPage {
  Buffer data;                                    // one kPageSize page
  AccessRights rights = AccessRights::kReadOnly;  // rights held from below
  bool dirty = false;
};

// Whole pages at `offset`, handed to a layer's StorePages hook.
struct PageRun {
  Offset offset = 0;
  ByteSpan data;
};

// Everything a caching layer knows about one exported file, less what its
// lower half adds.
struct CachedFileState {
  explicit CachedFileState(const char* manager_name)
      : lower(std::make_shared<LowerChannel>(manager_name)) {}

  uint64_t file_id = 0;    // the layer's identity for this file
  uint64_t pager_key = 0;  // key the clients' channels use
  sp<LowerChannel> lower;  // this file's channel to the layer below
  CoherencyEngine engine;  // MRSW across *client* caches
  std::map<Offset, CachedPage> pages;
  FileAttributes attrs;
  bool attrs_valid = false;
  bool attrs_dirty = false;
  std::mutex mutex;
};

// Cache accounting of a caching layer, published by its CollectStats.
struct CachedFileStats {
  std::atomic<uint64_t> data_hits{0};
  std::atomic<uint64_t> data_misses{0};
  std::atomic<uint64_t> attr_hits{0};
  std::atomic<uint64_t> attr_misses{0};
  std::atomic<uint64_t> bytes_written{0};  // through File::Write

  void Reset() {
    for (auto* counter :
         {&data_hits, &data_misses, &attr_hits, &attr_misses, &bytes_written}) {
      counter->store(0);
    }
  }
};

template <typename Layer>
class CachedFile final : public File, public Servant {
 public:
  using State = typename Layer::FileState;

  CachedFile(sp<Layer> layer, sp<State> state)
      : Servant(layer->domain()), layer_(std::move(layer)),
        state_(std::move(state)) {}

  const sp<State>& state() const { return state_; }

  // --- MemoryObject ---
  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights) override {
    return InDomain([&]() -> Result<sp<CacheRights>> {
      RETURN_IF_ERROR(layer_->EnsureBoundBelow(state_));
      return LayerPager<Layer>::BindClient(layer_, state_, caller);
    });
  }

  Result<Offset> GetLength() override {
    return InDomain([&]() -> Result<Offset> {
      if (File* below = layer_->UncachedAttrs(*state_)) {
        return below->GetLength();
      }
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(EnsureAttrs(*layer_, *state_));
      return Offset{state_->attrs.size};
    });
  }

  Status SetLength(Offset length) override {
    return InDomain([&]() -> Status {
      if (File* below = layer_->UncachedAttrs(*state_)) {
        return below->SetLength(length);
      }
      State& s = *state_;
      std::lock_guard<std::mutex> lock(s.mutex);
      RETURN_IF_ERROR(EnsureAttrs(*layer_, s));
      uint64_t old_size = s.attrs.size;
      s.attrs.size = length;
      s.attrs.mtime_ns = layer_->clock_->Now();
      s.attrs_dirty = true;
      RETURN_IF_ERROR(BroadcastAttrInvalidate(*layer_, s, 0));
      if (length >= old_size) {
        return Status::Ok();
      }
      // Truncation: discard data beyond EOF everywhere.
      RETURN_IF_ERROR(layer_->CutBelow(s, length));
      Offset from = PageCeil(length);
      for (const sp<CacheObject>& cache : s.engine.Caches()) {
        RETURN_IF_ERROR(cache->DeleteRange(Range{from, ~Offset{0} - from}));
      }
      s.pages.erase(s.pages.lower_bound(from), s.pages.end());
      if (length % kPageSize == 0) {
        return Status::Ok();
      }
      // Zero the tail of the page holding the new EOF. The layer now holds
      // that page's newest content; claim it read-write so the dirty copy
      // can be stored below.
      auto tail = s.pages.find(PageFloor(length));
      if (tail != s.pages.end()) {
        size_t cut = length - tail->first;
        std::memset(tail->second.data.data() + cut, 0, kPageSize - cut);
        tail->second.dirty = true;
        tail->second.rights = AccessRights::kReadWrite;
      }
      for (const sp<CacheObject>& cache : s.engine.Caches()) {
        RETURN_IF_ERROR(
            cache->ZeroFill(Range{length, kPageSize - length % kPageSize}));
      }
      return Status::Ok();
    });
  }

  // --- File ---
  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return InDomain([&]() -> Result<size_t> {
      Timer& timer = TimerFor(kRead);
      metrics::TimedOp timed(timer.metric, timer.span.c_str());
      RETURN_IF_ERROR(layer_->EnsureBoundForIo(state_));
      State& s = *state_;
      std::lock_guard<std::mutex> lock(s.mutex);
      RETURN_IF_ERROR(Recall(*layer_, s, 0, Range{offset, out.size()},
                             AccessRights::kReadOnly));
      if (File* below = layer_->UncachedData(s)) {
        return below->Read(offset, out);
      }
      RETURN_IF_ERROR(EnsureAttrs(*layer_, s));
      if (offset >= s.attrs.size) {
        return size_t{0};
      }
      size_t to_read = std::min<uint64_t>(out.size(), s.attrs.size - offset);
      RETURN_IF_ERROR(EnsurePages(*layer_, s, PageFloor(offset),
                                  PageCeil(offset + to_read),
                                  AccessRights::kReadOnly));
      for (size_t done = 0; done < to_read;) {
        Offset page = PageFloor(offset + done);
        size_t in_page = offset + done - page;
        size_t chunk = std::min<size_t>(kPageSize - in_page, to_read - done);
        std::memcpy(out.data() + done, s.pages.at(page).data.data() + in_page,
                    chunk);
        done += chunk;
      }
      s.attrs.atime_ns = layer_->clock_->Now();
      s.attrs_dirty = true;
      return to_read;
    });
  }

  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return InDomain([&]() -> Result<size_t> {
      Timer& timer = TimerFor(kWrite);
      metrics::TimedOp timed(timer.metric, timer.span.c_str());
      RETURN_IF_ERROR(layer_->EnsureBoundForIo(state_));
      State& s = *state_;
      std::lock_guard<std::mutex> lock(s.mutex);
      RETURN_IF_ERROR(Recall(*layer_, s, 0, Range{offset, data.size()},
                             AccessRights::kReadWrite));
      if (File* below = layer_->UncachedData(s)) {
        return below->Write(offset, data);
      }
      RETURN_IF_ERROR(EnsureAttrs(*layer_, s));
      RETURN_IF_ERROR(EnsurePages(*layer_, s, PageFloor(offset),
                                  PageCeil(offset + data.size()),
                                  AccessRights::kReadWrite));
      for (size_t done = 0; done < data.size();) {
        Offset page = PageFloor(offset + done);
        size_t in_page = offset + done - page;
        size_t chunk =
            std::min<size_t>(kPageSize - in_page, data.size() - done);
        CachedPage& cached = s.pages.at(page);
        std::memcpy(cached.data.data() + in_page, data.data() + done, chunk);
        cached.dirty = true;
        done += chunk;
      }
      s.attrs.size = std::max<uint64_t>(s.attrs.size, offset + data.size());
      s.attrs.mtime_ns = layer_->clock_->Now();
      s.attrs_dirty = true;
      layer_->cache_stats_.bytes_written += data.size();
      RETURN_IF_ERROR(BroadcastAttrInvalidate(*layer_, s, 0));
      return data.size();
    });
  }

  Result<FileAttributes> Stat() override {
    return InDomain([&]() -> Result<FileAttributes> {
      if (File* below = layer_->UncachedAttrs(*state_)) {
        return below->Stat();
      }
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(EnsureAttrs(*layer_, *state_));
      return state_->attrs;
    });
  }

  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return InDomain([&]() -> Status {
      if (File* below = layer_->UncachedAttrs(*state_)) {
        return below->SetTimes(atime_ns, mtime_ns);
      }
      std::lock_guard<std::mutex> lock(state_->mutex);
      RETURN_IF_ERROR(EnsureAttrs(*layer_, *state_));
      state_->attrs.atime_ns = atime_ns;
      state_->attrs.mtime_ns = mtime_ns;
      state_->attrs_dirty = true;
      return BroadcastAttrInvalidate(*layer_, *state_, 0);
    });
  }

  Status SyncFile() override {
    return InDomain([&]() -> Status {
      {
        std::lock_guard<std::mutex> lock(state_->mutex);
        RETURN_IF_ERROR(SyncState(*layer_, *state_));
      }
      return layer_->SyncBelow(*state_);
    });
  }

  // --- the client pager's entry points (LayerPager<Layer>) ---

  static Result<Buffer> ClientPageIn(Layer& layer, State& s, uint64_t channel,
                                     Offset offset, Offset size,
                                     AccessRights access) {
    Timer& timer = TimerFor(kPageIn);
    metrics::TimedOp timed(timer.metric, timer.span.c_str());
    std::lock_guard<std::mutex> lock(s.mutex);
    Offset begin = PageFloor(offset);
    Offset end = PageCeil(offset + std::max<Offset>(size, 1));
    File* below = layer.UncachedData(s);
    Offset read_ahead = Offset{layer.read_ahead_pages()} * kPageSize;
    // A read-only page-in is widened twice: by the client's fault cluster
    // (the request spans several pages) and by the layer's read-ahead (the
    // bind contract lets a pager return more data than requested). In
    // caching mode both stop at the file length, so no page past EOF is
    // filled from below. The demanded page is always served; the client
    // accepts the short reply.
    if (!below && access == AccessRights::kReadOnly &&
        (end - begin > kPageSize || read_ahead > 0) &&
        EnsureAttrs(layer, s).ok()) {
      Offset eof = PageCeil(s.attrs.size);
      end = std::max(begin + kPageSize, std::min(end + read_ahead, eof));
    }
    RETURN_IF_ERROR(
        Recall(layer, s, channel, Range::FromTo(begin, end), access));
    if (below) {
      // Pass-through: fetch from below without retaining.
      return layer.FillPages(s, begin, end - begin, &access);
    }
    RETURN_IF_ERROR(EnsurePages(layer, s, begin, end, access));
    Buffer out(end - begin);
    for (Offset page = begin; page < end; page += kPageSize) {
      out.WriteAt(page - begin, s.pages.at(page).data.span());
    }
    return out;
  }

  // A client's page-out (`drops`), write-out (`downgrades`) or sync
  // (`push_below`: the pages are stored below at once).
  static Status ClientPageWrite(Layer& layer, State& s, uint64_t channel,
                                Offset offset, ByteSpan data, bool drops,
                                bool downgrades, bool push_below) {
    Timer& timer = TimerFor(kPageWrite);
    metrics::TimedOp timed(timer.metric, timer.span.c_str());
    std::lock_guard<std::mutex> lock(s.mutex);
    if (offset % kPageSize != 0 || data.size() % kPageSize != 0) {
      return ErrInvalidArgument("page write must be page-aligned");
    }
    bool caching = layer.UncachedData(s) == nullptr;
    if (caching) {
      PutPages(s, offset, data, /*dirty=*/!push_below);
    }
    if (push_below || !caching) {
      RETURN_IF_ERROR(layer.StorePages(s, {PageRun{offset, data}}));
    }
    if (drops) {
      s.engine.ReleaseDropped(channel, Range{offset, data.size()});
    } else if (downgrades) {
      s.engine.ReleaseDowngraded(channel, Range{offset, data.size()});
    }
    return Status::Ok();
  }

  static Result<FileAttributes> ClientGetAttributes(Layer& layer, State& s) {
    std::lock_guard<std::mutex> lock(s.mutex);
    RETURN_IF_ERROR(layer.UncachedAttrs(s) ? layer.LoadAttributes(s)
                                           : EnsureAttrs(layer, s));
    return s.attrs;
  }

  static Status ClientWriteAttributes(Layer& layer, State& s,
                                      uint64_t channel,
                                      const AttrUpdate& update) {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (layer.UncachedAttrs(s)) {
      return layer.StoreAttributes(s, update);
    }
    RETURN_IF_ERROR(EnsureAttrs(layer, s));
    if (update.size) {
      s.attrs.size = *update.size;
    }
    if (update.atime_ns) {
      s.attrs.atime_ns = *update.atime_ns;
    }
    if (update.mtime_ns) {
      s.attrs.mtime_ns = *update.mtime_ns;
    }
    s.attrs_dirty = true;
    return BroadcastAttrInvalidate(layer, s, channel);
  }

  // --- helpers for the layer's own paths; state.mutex held ---

  static Status EnsureAttrs(Layer& layer, State& s) {
    if (s.attrs_valid) {
      ++layer.cache_stats_.attr_hits;
      return Status::Ok();
    }
    ++layer.cache_stats_.attr_misses;
    s.attrs_dirty = false;
    RETURN_IF_ERROR(layer.LoadAttributes(s));
    s.attrs_valid = true;
    return Status::Ok();
  }

  // Recalls the client writers' data, then stores every dirty page and the
  // attributes below.
  static Status SyncState(Layer& layer, State& s) {
    RETURN_IF_ERROR(Recall(layer, s, 0, Range::All(), AccessRights::kReadOnly));
    std::vector<PageRun> dirty;
    for (const auto& [off, page] : s.pages) {
      if (page.dirty) {
        dirty.push_back(PageRun{off, page.data.span()});
      }
    }
    if (!dirty.empty()) {
      RETURN_IF_ERROR(layer.StorePages(s, dirty));
      for (const PageRun& run : dirty) {
        s.pages.at(run.offset).dirty = false;
      }
    }
    if (s.attrs_valid && s.attrs_dirty) {
      AttrUpdate update;
      update.size = s.attrs.size;
      update.atime_ns = s.attrs.atime_ns;
      update.mtime_ns = s.attrs.mtime_ns;
      RETURN_IF_ERROR(layer.StoreAttributes(s, update));
      s.attrs_dirty = false;
    }
    return Status::Ok();
  }

 private:
  // Per-layer op timers: "<Layer::kTimerPrefix>/read" etc., with trace
  // spans "<Layer::kSpanPrefix>.read" etc.
  enum TimedOpKind { kRead, kWrite, kPageIn, kPageWrite };
  struct Timer {
    explicit Timer(const char* op)
        : metric(std::string(Layer::kTimerPrefix) + "/" + op),
          span(std::string(Layer::kSpanPrefix) + "." + op) {}
    metrics::OpMetric metric;
    std::string span;
  };
  static Timer& TimerFor(TimedOpKind kind) {
    static Timer timers[] = {Timer("read"), Timer("write"), Timer("page_in"),
                             Timer("page_write")};
    return timers[kind];
  }

  // Caches whole pages at `offset`, held read-write.
  static void PutPages(State& s, Offset offset, ByteSpan data, bool dirty) {
    for (Offset off = 0; off < data.size(); off += kPageSize) {
      s.pages.insert_or_assign(
          offset + off, CachedPage{Buffer(data.subspan(off, kPageSize)),
                                   AccessRights::kReadWrite, dirty});
    }
  }

  // Acquires `range` for `requester` (0: this layer) across the client
  // caches and folds the dirty data recalled from them into the cache, or
  // stores it below when the layer does not cache data.
  static Status Recall(Layer& layer, State& s, uint64_t requester, Range range,
                       AccessRights access) {
    ASSIGN_OR_RETURN(std::vector<BlockData> recovered,
                     s.engine.Acquire(requester, range, access));
    if (recovered.empty()) {
      return Status::Ok();
    }
    std::vector<PageRun> runs;
    for (BlockData& block : recovered) {
      block.data.resize(kPageSize);
      runs.push_back(PageRun{block.offset, block.data.span()});
    }
    if (layer.UncachedData(s)) {
      return layer.StorePages(s, runs);
    }
    for (const PageRun& run : runs) {
      PutPages(s, run.offset, run.data, /*dirty=*/true);
    }
    return Status::Ok();
  }

  // Fills the pages of [begin, end) not cached with `access`, in
  // contiguous runs.
  static Status EnsurePages(Layer& layer, State& s, Offset begin, Offset end,
                            AccessRights access) {
    Offset run_start = 0;
    Offset run_len = 0;
    auto fill_run = [&]() -> Status {
      if (run_len == 0) {
        return Status::Ok();
      }
      AccessRights held = access;
      ASSIGN_OR_RETURN(Buffer data,
                       layer.FillPages(s, run_start, run_len, &held));
      for (Offset off = 0; off < run_len; off += kPageSize) {
        s.pages.insert_or_assign(
            run_start + off,
            CachedPage{Buffer(data.subspan(off, kPageSize)), held, false});
      }
      run_len = 0;
      return Status::Ok();
    };
    for (Offset page = begin; page < end; page += kPageSize) {
      auto it = s.pages.find(page);
      if (it != s.pages.end() &&
          (access == AccessRights::kReadOnly ||
           it->second.rights == AccessRights::kReadWrite)) {
        ++layer.cache_stats_.data_hits;
        RETURN_IF_ERROR(fill_run());
        continue;
      }
      if (it != s.pages.end() && it->second.dirty) {
        // Upgrading a dirty page would clobber it; a dirty page must
        // already be held read-write from below.
        return ErrCorrupted("dirty read-only page in a layer cache");
      }
      ++layer.cache_stats_.data_misses;
      if (run_len == 0) {
        run_start = page;
      }
      run_len += kPageSize;
    }
    return fill_run();
  }

  // Tells every file-system client cache (fs_cache narrows) except
  // `except_channel` that its cached attributes are stale: the section 4.3
  // attribute coherency protocol.
  static Status BroadcastAttrInvalidate(Layer& layer, State& s,
                                        uint64_t except_channel) {
    for (const auto& ch : layer.client_channels_.ChannelsForFile(s.file_id)) {
      if (ch.local_id != except_channel && ch.fs_cache) {
        RETURN_IF_ERROR(ch.fs_cache->InvalidateAttributes());
      }
    }
    return Status::Ok();
  }

  sp<Layer> layer_;
  sp<State> state_;
};

}  // namespace springfs

#endif  // SPRINGFS_FS_CACHED_FILE_H_
