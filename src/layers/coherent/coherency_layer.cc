#include "src/layers/coherent/coherency_layer.h"

#include <algorithm>

#include "src/obs/trace.h"
#include "src/support/logging.h"

namespace springfs {

// --- servants -------------------------------------------------------------

// The layer's cache object toward the layer below: coherency actions from
// below are propagated to this layer's clients and its own cache.
class CoherencyLowerCacheObject : public FsCacheObject, public Servant {
 public:
  CoherencyLowerCacheObject(sp<Domain> domain, sp<CoherencyLayer> layer,
                            sp<CoherencyLayer::FileState> state)
      : Servant(std::move(domain)), layer_(std::move(layer)),
        state_(std::move(state)) {}

  Result<std::vector<BlockData>> FlushBack(Range range) override {
    return InDomain([&] { return layer_->LowerFlushBack(*state_, range); });
  }
  Result<std::vector<BlockData>> DenyWrites(Range range) override {
    return InDomain([&] { return layer_->LowerDenyWrites(*state_, range); });
  }
  Result<std::vector<BlockData>> WriteBack(Range range) override {
    return InDomain([&]() -> Result<std::vector<BlockData>> {
      std::lock_guard<std::mutex> lock(state_->mutex);
      std::vector<BlockData> modified;
      Offset end = range.end();
      for (auto& [off, block] : state_->pages) {
        if (off >= range.offset && off < end && block.dirty) {
          modified.push_back(BlockData{off, block.data});
          block.dirty = false;
        }
      }
      return layer_->EncodeForRecall(*state_, std::move(modified));
    });
  }
  Status DeleteRange(Range range) override {
    return InDomain([&]() -> Status {
      std::lock_guard<std::mutex> lock(state_->mutex);
      Offset end = range.end();
      for (const sp<CacheObject>& cache : state_->engine.Caches()) {
        RETURN_IF_ERROR(cache->DeleteRange(range));
      }
      auto it = state_->pages.lower_bound(PageFloor(range.offset));
      while (it != state_->pages.end() && it->first < end) {
        it = state_->pages.erase(it);
      }
      return Status::Ok();
    });
  }
  Status ZeroFill(Range range) override {
    return InDomain([&]() -> Status {
      std::lock_guard<std::mutex> lock(state_->mutex);
      Offset end = range.end();
      for (const sp<CacheObject>& cache : state_->engine.Caches()) {
        RETURN_IF_ERROR(cache->ZeroFill(range));
      }
      for (auto it = state_->pages.lower_bound(PageFloor(range.offset));
           it != state_->pages.end() && it->first < end; ++it) {
        // A page the range covers in part keeps its other bytes.
        Offset from = std::max(range.offset, it->first);
        Offset to = std::min<Offset>(end, it->first + kPageSize);
        std::memset(it->second.data.data() + (from - it->first), 0,
                    to - from);
        if (to - from == kPageSize) {
          it->second.dirty = false;
        }
      }
      return Status::Ok();
    });
  }
  Status Populate(Offset offset, AccessRights access, ByteSpan data) override {
    return InDomain([&]() -> Status {
      if (offset % kPageSize != 0 || data.size() % kPageSize != 0) {
        return ErrInvalidArgument("populate must be page-aligned");
      }
      std::lock_guard<std::mutex> lock(state_->mutex);
      for (Offset off = 0; off < data.size(); off += kPageSize) {
        state_->pages.insert_or_assign(
            offset + off,
            CachedPage{Buffer(data.subspan(off, kPageSize)), access, false});
      }
      return Status::Ok();
    });
  }
  Status DestroyCache() override {
    return InDomain([&]() -> Status {
      std::lock_guard<std::mutex> lock(state_->mutex);
      state_->pages.clear();
      state_->lower->Drop();
      return Status::Ok();
    });
  }

  Status InvalidateAttributes() override {
    return InDomain([&]() -> Status {
      std::lock_guard<std::mutex> lock(state_->mutex);
      state_->attrs_valid = false;
      return Status::Ok();
    });
  }
  Result<AttrUpdate> RecallAttributes() override {
    return InDomain([&]() -> Result<AttrUpdate> {
      std::lock_guard<std::mutex> lock(state_->mutex);
      AttrUpdate update;
      if (state_->attrs_valid && state_->attrs_dirty) {
        update.size = state_->attrs.size;
        update.atime_ns = state_->attrs.atime_ns;
        update.mtime_ns = state_->attrs.mtime_ns;
      }
      return update;
    });
  }

 private:
  sp<CoherencyLayer> layer_;
  sp<CoherencyLayer::FileState> state_;
};

// --- CoherencyLayer --------------------------------------------------------

sp<CoherencyLayer> CoherencyLayer::Create(sp<Domain> domain,
                                          CoherencyLayerOptions options,
                                          Clock* clock) {
  return sp<CoherencyLayer>(
      new CoherencyLayer(std::move(domain), options, clock));
}

CoherencyLayer::CoherencyLayer(sp<Domain> domain,
                               CoherencyLayerOptions options, Clock* clock)
    : StackedLayer(std::move(domain)), options_(options), clock_(clock) {
  metrics::Registry::Global().RegisterProvider(this);
}

CoherencyLayer::~CoherencyLayer() {
  metrics::Registry::Global().UnregisterProvider(this);
}

void CoherencyLayer::CollectStats(const metrics::StatsEmitter& emit) const {
  emit("data_cache_hits", cache_stats_.data_hits);
  emit("data_cache_misses", cache_stats_.data_misses);
  emit("attr_cache_hits", cache_stats_.attr_hits);
  emit("attr_cache_misses", cache_stats_.attr_misses);
  emit("lower_page_ins", lower_page_ins_);
  emit("lower_page_outs", lower_page_outs_);
}

sp<CoherencyLayer::FileState> CoherencyLayer::StateForFile(
    const sp<File>& under) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, state] : states_) {
    if (state->under == under) {
      return state;
    }
  }
  auto state = std::make_shared<FileState>();
  state->under = under;
  state->file_id = next_file_id_++;
  state->pager_key = NewPagerKey();
  states_.emplace(state->file_id, state);
  return state;
}

Result<sp<File>> CoherencyLayer::WrapFile(const Name&,
                                          const sp<File>& under) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = wrapped_files_.find(under.get());
    if (it != wrapped_files_.end()) {
      return sp<File>(it->second);
    }
  }
  sp<FileState> state = StateForFile(under);
  auto wrapped = std::make_shared<CachedFile<CoherencyLayer>>(Self(), state);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = wrapped_files_.emplace(under.get(), wrapped);
  return sp<File>(it->second);
}

Result<sp<Object>> CoherencyLayer::UnwrapForBind(sp<Object> object) {
  if (auto wrapped = narrow<CachedFile<CoherencyLayer>>(object)) {
    return sp<Object>(wrapped->state()->under);
  }
  return object;
}

void CoherencyLayer::Unbound(const Name&, const sp<Object>& below) {
  // Without the purge a later SyncFs would push cached data into a deleted
  // file.
  sp<File> under_file = narrow<File>(below);
  if (!under_file || under_file->Stat().ok()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  wrapped_files_.erase(under_file.get());
  for (auto it = states_.begin(); it != states_.end();) {
    if (it->second->under == under_file) {
      client_channels_.RemoveFile(it->second->file_id);
      it = states_.erase(it);
    } else {
      ++it;
    }
  }
}

Status CoherencyLayer::SyncOwn() {
  std::vector<sp<FileState>> states;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, state] : states_) {
      states.push_back(state);
    }
  }
  for (const sp<FileState>& state : states) {
    std::lock_guard<std::mutex> lock(state->mutex);
    RETURN_IF_ERROR(CachedFile<CoherencyLayer>::SyncState(*this, *state));
  }
  return Status::Ok();
}

Status CoherencyLayer::EnsureBoundBelow(const sp<FileState>& state) {
  return state->lower->Ensure(*state->under, [&] {
    return std::make_shared<CoherencyLowerCacheObject>(domain(), Self(), state);
  });
}

Status CoherencyLayer::LoadAttributes(FileState& state) {
  // Prefer the fs_pager attribute path when the layer below is a file
  // system; fall back to the file interface.
  if (sp<FsPagerObject> fs_pager = state.lower->fs_pager()) {
    ASSIGN_OR_RETURN(state.attrs, fs_pager->GetAttributes());
  } else {
    ASSIGN_OR_RETURN(state.attrs, state.under->Stat());
  }
  return Status::Ok();
}

Result<Buffer> CoherencyLayer::FillPages(FileState& state, Offset begin,
                                         Offset len, AccessRights* access) {
  ASSIGN_OR_RETURN(sp<PagerObject> pager, state.lower->pager());
  ++lower_page_ins_;
  trace::ScopedSpan span("coh.lower_page_in");
  ASSIGN_OR_RETURN(Buffer raw, pager->PageIn(begin, len, *access));
  if (raw.size() < len) {
    raw.resize(len);
  }
  Buffer decoded(len);
  for (Offset off = 0; off < len; off += kPageSize) {
    ASSIGN_OR_RETURN(Buffer page,
                     DecodeFromBelow(state.file_id, begin + off,
                                     Buffer(raw.subspan(off, kPageSize))));
    if (page.size() != kPageSize) {
      return ErrCorrupted("decode changed page size");
    }
    decoded.WriteAt(off, page.span());
  }
  return decoded;
}

Status CoherencyLayer::StorePages(FileState& state,
                                  const std::vector<PageRun>& runs) {
  for (const PageRun& run : runs) {
    if (run.offset % kPageSize != 0 || run.data.size() % kPageSize != 0) {
      return ErrInvalidArgument("push to below must be page-aligned");
    }
    ASSIGN_OR_RETURN(sp<PagerObject> pager, state.lower->pager());
    Buffer encoded(run.data.size());
    for (Offset off = 0; off < run.data.size(); off += kPageSize) {
      ASSIGN_OR_RETURN(
          Buffer page,
          EncodeForBelow(state.file_id, run.offset + off,
                         Buffer(run.data.subspan(off, kPageSize))));
      if (page.size() != kPageSize) {
        return ErrCorrupted("encode changed page size");
      }
      encoded.WriteAt(off, page.span());
    }
    ++lower_page_outs_;
    trace::ScopedSpan span("coh.lower_page_out");
    RETURN_IF_ERROR(pager->Sync(run.offset, encoded.span()));
  }
  return Status::Ok();
}

Status CoherencyLayer::StoreAttributes(FileState& state,
                                       const AttrUpdate& update) {
  if (sp<FsPagerObject> fs_pager = state.lower->fs_pager()) {
    return fs_pager->WriteAttributes(update);
  }
  if (update.size) {
    RETURN_IF_ERROR(state.under->SetLength(*update.size));
  }
  if (update.atime_ns && update.mtime_ns) {
    RETURN_IF_ERROR(state.under->SetTimes(*update.atime_ns, *update.mtime_ns));
  }
  return Status::Ok();
}

Result<std::vector<BlockData>> CoherencyLayer::LowerFlushBack(FileState& state,
                                                              Range range) {
  trace::ScopedSpan span("coh.lower_flush_back");
  std::lock_guard<std::mutex> lock(state.mutex);
  // Our clients' caches depend on ours: flush them first. Recovered data is
  // returned to the caller (the layer below) via the return value — never
  // by calling back down, which could re-enter the caller mid-callback.
  ASSIGN_OR_RETURN(std::vector<BlockData> recovered,
                   state.engine.Acquire(0, range, AccessRights::kReadWrite));
  Offset end = range.end();
  std::vector<BlockData> modified = std::move(recovered);
  if (options_.cache_data) {
    // Fold first so a block dirty both here and at a client surfaces once,
    // with the client's (newer) content.
    for (BlockData& block : modified) {
      state.pages.erase(block.offset);
    }
    auto it = state.pages.lower_bound(PageFloor(range.offset));
    while (it != state.pages.end() && it->first < end) {
      if (it->second.dirty) {
        modified.push_back(BlockData{it->first, std::move(it->second.data)});
      }
      it = state.pages.erase(it);
    }
  }
  return EncodeForRecall(state, std::move(modified));
}

Result<std::vector<BlockData>> CoherencyLayer::LowerDenyWrites(
    FileState& state, Range range) {
  trace::ScopedSpan span("coh.lower_deny_writes");
  std::lock_guard<std::mutex> lock(state.mutex);
  ASSIGN_OR_RETURN(std::vector<BlockData> recovered,
                   state.engine.Acquire(0, range, AccessRights::kReadOnly));
  Offset end = range.end();
  std::vector<BlockData> modified;
  if (options_.cache_data) {
    // Keep the recovered client data in our cache (now read-only below) and
    // report it as modified.
    for (const BlockData& block : recovered) {
      Buffer page = block.data;
      page.resize(kPageSize);
      state.pages.insert_or_assign(
          block.offset,
          CachedPage{std::move(page), AccessRights::kReadOnly, false});
      modified.push_back(block);
    }
    for (auto it = state.pages.lower_bound(PageFloor(range.offset));
         it != state.pages.end() && it->first < end; ++it) {
      if (it->second.dirty) {
        modified.push_back(BlockData{it->first, it->second.data});
        it->second.dirty = false;
      }
      it->second.rights = AccessRights::kReadOnly;
    }
  } else {
    modified = std::move(recovered);
  }
  return EncodeForRecall(state, std::move(modified));
}

Result<std::vector<BlockData>> CoherencyLayer::EncodeForRecall(
    const FileState& state, std::vector<BlockData> blocks) {
  // The blocks are this layer's plaintext (its own cache, its clients'),
  // and the layer below stores what it is handed.
  for (BlockData& block : blocks) {
    block.data.resize(kPageSize);
    ASSIGN_OR_RETURN(block.data, EncodeForBelow(state.file_id, block.offset,
                                                std::move(block.data)));
    if (block.data.size() != kPageSize) {
      return ErrCorrupted("encode changed page size");
    }
  }
  return blocks;
}

void CoherencyLayer::ResetStats() {
  cache_stats_.Reset();
  lower_page_ins_ = 0;
  lower_page_outs_ = 0;
}

}  // namespace springfs
