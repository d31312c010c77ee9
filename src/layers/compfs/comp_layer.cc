#include "src/layers/compfs/comp_layer.h"

#include <algorithm>

#include "src/support/logging.h"

namespace springfs {
namespace {

constexpr uint32_t kCompMagic = 0x434D5046;  // "CMPF"
constexpr uint32_t kCompVersion = 1;
constexpr size_t kMetaHeaderSize = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8;
constexpr size_t kMetaEntrySize = 16;

void PutU32At(Buffer& buf, size_t offset, uint32_t v) {
  uint8_t tmp[4];
  for (int i = 0; i < 4; ++i) {
    tmp[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  buf.WriteAt(offset, ByteSpan(tmp, 4));
}
void PutU64At(Buffer& buf, size_t offset, uint64_t v) {
  uint8_t tmp[8];
  for (int i = 0; i < 8; ++i) {
    tmp[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  buf.WriteAt(offset, ByteSpan(tmp, 8));
}
uint32_t GetU32At(ByteSpan buf, size_t offset) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | buf[offset + i];
  }
  return v;
}
uint64_t GetU64At(ByteSpan buf, size_t offset) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | buf[offset + i];
  }
  return v;
}

}  // namespace

// --- servants ---------------------------------------------------------------

// Figure 6: COMPFS's cache object toward the layer below. Coherency actions
// from below invalidate the derived (decompressed) caches.
class CompLowerCacheObject : public CacheObject, public Servant {
 public:
  CompLowerCacheObject(sp<Domain> domain, sp<CompLayer> layer,
                       sp<CompLayer::FileState> state)
      : Servant(std::move(domain)), layer_(std::move(layer)),
        state_(std::move(state)) {}

  Result<std::vector<BlockData>> FlushBack(Range) override {
    return InDomain([&]() -> Result<std::vector<BlockData>> {
      RETURN_IF_ERROR(layer_->LowerInvalidate(*state_));
      return std::vector<BlockData>{};
    });
  }
  Result<std::vector<BlockData>> DenyWrites(Range) override {
    return InDomain([&]() -> Result<std::vector<BlockData>> {
      RETURN_IF_ERROR(layer_->LowerInvalidate(*state_));
      return std::vector<BlockData>{};
    });
  }
  Result<std::vector<BlockData>> WriteBack(Range) override {
    return std::vector<BlockData>{};
  }
  Status DeleteRange(Range) override {
    return InDomain([&] { return layer_->LowerInvalidate(*state_); });
  }
  Status ZeroFill(Range) override {
    return InDomain([&] { return layer_->LowerInvalidate(*state_); });
  }
  Status Populate(Offset, AccessRights, ByteSpan) override {
    return Status::Ok();
  }
  Status DestroyCache() override {
    return InDomain([&]() -> Status {
      state_->lower->Drop();
      return Status::Ok();
    });
  }

 private:
  sp<CompLayer> layer_;
  sp<CompLayer::FileState> state_;
};

// --- CompLayer --------------------------------------------------------------

sp<CompLayer> CompLayer::Create(sp<Domain> domain, CompLayerOptions options,
                                Clock* clock) {
  return sp<CompLayer>(new CompLayer(std::move(domain), options, clock));
}

CompLayer::CompLayer(sp<Domain> domain, CompLayerOptions options, Clock* clock)
    : StackedLayer(std::move(domain)), options_(std::move(options)),
      codec_(CodecByName(options_.codec)), clock_(clock) {
  SPRINGFS_CHECK(codec_ != nullptr);
  metrics::Registry::Global().RegisterProvider(this);
}

CompLayer::~CompLayer() {
  metrics::Registry::Global().UnregisterProvider(this);
}

Result<sp<File>> CompLayer::WrapFile(const Name& name,
                                     const sp<File>& under_data) {
  std::string key = name.ToString();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = wrapped_files_.find(key);
    if (it != wrapped_files_.end()) {
      return sp<File>(it->second);
    }
  }
  // Locate (or create) the metadata shadow file.
  Name meta_name = ShadowNameFor(name);
  sp<File> under_meta;
  Result<sp<Object>> meta_obj = under_->Resolve(meta_name,
                                                Credentials::System());
  if (meta_obj.ok()) {
    under_meta = narrow<File>(*meta_obj);
    if (!under_meta) {
      return ErrWrongType("metadata shadow is not a file");
    }
  } else if (meta_obj.code() == ErrorCode::kNotFound) {
    ASSIGN_OR_RETURN(under_meta,
                     under_->CreateFile(meta_name, Credentials::System()));
  } else {
    return meta_obj.status();
  }

  auto state = std::make_shared<FileState>();
  state->under_data = under_data;
  state->under_meta = under_meta;
  state->name = key;
  state->attrs.atime_ns = state->attrs.mtime_ns = clock_->Now();
  sp<CompLayer> self = Self();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = wrapped_files_.find(key);
  if (it != wrapped_files_.end()) {
    return sp<File>(it->second);
  }
  state->file_id = next_file_id_++;
  state->pager_key = NewPagerKey();
  auto wrapped = std::make_shared<CachedFile<CompLayer>>(self, state);
  wrapped_files_.emplace(key, wrapped);
  return sp<File>(wrapped);
}

Result<sp<Object>> CompLayer::UnwrapForBind(sp<Object> object) {
  if (narrow<CachedFile<CompLayer>>(object)) {
    return ErrNotSupported("a compfs file's chunk table is kept per name");
  }
  return object;
}

void CompLayer::Unbound(const Name& name, const sp<Object>&) {
  std::lock_guard<std::mutex> lock(mutex_);
  wrapped_files_.erase(name.ToString());
}

Status CompLayer::SyncOwn() {
  std::vector<sp<CachedFile<CompLayer>>> files;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, file] : wrapped_files_) {
      files.push_back(file);
    }
  }
  for (const sp<CachedFile<CompLayer>>& file : files) {
    const sp<FileState>& state = file->state();
    std::lock_guard<std::mutex> lock(state->mutex);
    RETURN_IF_ERROR(CachedFile<CompLayer>::SyncState(*this, *state));
    if (!state->attrs_valid) {
      continue;
    }
    // Auto-compaction: reclaim when the chunk store outgrew live data.
    uint64_t live = 0;
    for (const ChunkEntry& entry : state->table) {
      live += entry.length;
    }
    if (live > 0 &&
        static_cast<double>(state->next_free) >
            options_.compact_waste_factor * static_cast<double>(live)) {
      uint64_t reclaimed = 0;
      RETURN_IF_ERROR(CompactLocked(*state, &reclaimed));
    }
  }
  return Status::Ok();
}

// --- binding below (Figure 6) ----------------------------------------------

Status CompLayer::EnsureBoundBelow(const sp<FileState>& state) {
  if (!options_.coherent_lower) {
    return Status::Ok();  // Figure 5: never bound below
  }
  bool fresh = false;
  RETURN_IF_ERROR(state->lower->Ensure(*state->under_data, [&] {
    fresh = true;
    return std::make_shared<CompLowerCacheObject>(domain(), Self(), state);
  }));
  if (!fresh) {
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(state->mutex);
  // Everything cached so far was fetched through the (incoherent) file
  // interface, with no holdings registered at the layer below. Drop the
  // derived caches so future loads go through the pager channel and the
  // layer below knows what we hold.
  DropDerivedCaches(*state);
  return Status::Ok();
}

Status CompLayer::LowerInvalidate(FileState& state) {
  std::lock_guard<std::mutex> lock(state.mutex);
  ++stats_.lower_invalidations;
  DropDerivedCaches(state);
  return Status::Ok();
}

void CompLayer::DropDerivedCaches(FileState& state) {
  // Dirty plaintext (our own new data) survives; the table and header are
  // reloaded unless we own newer ones.
  std::erase_if(state.pages,
                [](const auto& page) { return !page.second.dirty; });
  state.attrs_valid = state.attrs_dirty;
}

// --- lower access ------------------------------------------------------------

Result<size_t> CompLayer::LowerRead(FileState& state, Offset offset,
                                    MutableByteSpan out) {
  if (Result<sp<PagerObject>> pager = state.lower->pager(); pager.ok()) {
    Offset begin = PageFloor(offset);
    Offset end = PageCeil(offset + out.size());
    ASSIGN_OR_RETURN(Buffer pages, (*pager)->PageIn(begin, end - begin,
                                                    AccessRights::kReadOnly));
    if (pages.size() < end - begin) {
      pages.resize(end - begin);
    }
    return pages.ReadAt(offset - begin, out);
  }
  return state.under_data->Read(offset, out);
}

Status CompLayer::LowerWrite(FileState& state, Offset offset, ByteSpan data) {
  Result<sp<PagerObject>> pager = state.lower->pager();
  if (!pager.ok()) {
    ASSIGN_OR_RETURN(size_t written, state.under_data->Write(offset, data));
    if (written != data.size()) {
      return ErrIoError("short write to underlying data file");
    }
    return Status::Ok();
  }
  // Page-granular read-modify-write through the pager channel. The PageIn
  // is issued even for whole-page writes: it registers this layer as the
  // write holder in the lower layer's coherency state, so later direct
  // writes to the underlying file flush us.
  Offset begin = PageFloor(offset);
  Offset end = PageCeil(offset + data.size());
  ASSIGN_OR_RETURN(Buffer pages, (*pager)->PageIn(begin, end - begin,
                                                  AccessRights::kReadWrite));
  pages.resize(end - begin);
  pages.WriteAt(offset - begin, data);
  RETURN_IF_ERROR((*pager)->Sync(begin, pages.span()));
  // Keep the underlying file's length in step with the chunk store.
  ASSIGN_OR_RETURN(Offset under_len, state.under_data->GetLength());
  if (offset + data.size() > under_len) {
    RETURN_IF_ERROR(state.under_data->SetLength(offset + data.size()));
  }
  return Status::Ok();
}

// --- metadata ----------------------------------------------------------------

Status CompLayer::LoadAttributes(FileState& state) {
  ASSIGN_OR_RETURN(FileAttributes meta_attrs, state.under_meta->Stat());
  if (meta_attrs.size == 0) {
    // Fresh file: empty table.
    state.attrs.size = 0;
    state.next_free = 0;
    state.table.clear();
    state.attrs_dirty = true;
    return Status::Ok();
  }
  Buffer raw(meta_attrs.size);
  ASSIGN_OR_RETURN(size_t n, state.under_meta->Read(0, raw.mutable_span()));
  if (n != meta_attrs.size || n < kMetaHeaderSize + 4) {
    return ErrCorrupted("compfs metadata truncated");
  }
  uint32_t stored_crc = GetU32At(raw.span(), raw.size() - 4);
  uint32_t computed_crc = Crc32(raw.subspan(0, raw.size() - 4));
  if (stored_crc != computed_crc) {
    return ErrCorrupted("compfs metadata CRC mismatch");
  }
  if (GetU32At(raw.span(), 0) != kCompMagic ||
      GetU32At(raw.span(), 4) != kCompVersion) {
    return ErrCorrupted("compfs metadata bad magic/version");
  }
  state.attrs.size = GetU64At(raw.span(), 8);
  state.next_free = GetU64At(raw.span(), 16);
  uint64_t block_count = GetU64At(raw.span(), 24);
  state.attrs.atime_ns = GetU64At(raw.span(), 32);
  state.attrs.mtime_ns = GetU64At(raw.span(), 40);
  if (raw.size() != kMetaHeaderSize + block_count * kMetaEntrySize + 4) {
    return ErrCorrupted("compfs metadata size mismatch");
  }
  state.table.clear();
  state.table.reserve(block_count);
  for (uint64_t i = 0; i < block_count; ++i) {
    size_t at = kMetaHeaderSize + i * kMetaEntrySize;
    ChunkEntry entry;
    entry.offset = GetU64At(raw.span(), at);
    entry.length = GetU32At(raw.span(), at + 8);
    entry.raw = (GetU32At(raw.span(), at + 12) & 1) != 0;
    state.table.push_back(entry);
  }
  return Status::Ok();
}

Status CompLayer::StoreMeta(FileState& state) {
  Buffer raw(kMetaHeaderSize + state.table.size() * kMetaEntrySize + 4);
  PutU32At(raw, 0, kCompMagic);
  PutU32At(raw, 4, kCompVersion);
  PutU64At(raw, 8, state.attrs.size);
  PutU64At(raw, 16, state.next_free);
  PutU64At(raw, 24, state.table.size());
  PutU64At(raw, 32, state.attrs.atime_ns);
  PutU64At(raw, 40, state.attrs.mtime_ns);
  for (size_t i = 0; i < state.table.size(); ++i) {
    size_t at = kMetaHeaderSize + i * kMetaEntrySize;
    PutU64At(raw, at, state.table[i].offset);
    PutU32At(raw, at + 8, state.table[i].length);
    PutU32At(raw, at + 12, state.table[i].raw ? 1 : 0);
  }
  PutU32At(raw, raw.size() - 4, Crc32(raw.subspan(0, raw.size() - 4)));
  ASSIGN_OR_RETURN(size_t written, state.under_meta->Write(0, raw.span()));
  if (written != raw.size()) {
    return ErrIoError("short metadata write");
  }
  RETURN_IF_ERROR(state.under_meta->SetLength(raw.size()));
  state.attrs_dirty = false;
  return Status::Ok();
}

// --- blocks ------------------------------------------------------------------

Result<Buffer> CompLayer::LoadBlock(FileState& state, uint64_t block_index) {
  Buffer page(kPageSize);
  if (block_index >= state.table.size() ||
      state.table[block_index].length == 0) {
    return page;  // hole
  }
  const ChunkEntry& entry = state.table[block_index];
  Buffer chunk(entry.length);
  ASSIGN_OR_RETURN(size_t n, LowerRead(state, entry.offset,
                                       chunk.mutable_span()));
  if (n != entry.length) {
    return ErrCorrupted("compfs chunk truncated in underlying file");
  }
  if (entry.raw) {
    if (entry.length != kPageSize) {
      return ErrCorrupted("compfs raw chunk has wrong size");
    }
    return chunk;
  }
  ++stats_.blocks_decompressed;
  return codec_->Decompress(chunk.span(), kPageSize);
}

Status CompLayer::StoreBlock(FileState& state, uint64_t block_index,
                             ByteSpan page) {
  SPRINGFS_CHECK(page.size() == kPageSize);
  Buffer compressed = codec_->Compress(page);
  bool raw = compressed.size() >= kPageSize;
  ByteSpan chunk = raw ? page : compressed.span();
  uint64_t offset = state.next_free;
  RETURN_IF_ERROR(LowerWrite(state, offset, chunk));
  state.next_free += chunk.size();
  if (state.table.size() <= block_index) {
    state.table.resize(block_index + 1);
  }
  state.table[block_index] =
      ChunkEntry{offset, static_cast<uint32_t>(chunk.size()), raw};
  state.attrs_dirty = true;
  ++stats_.blocks_compressed;
  if (raw) {
    ++stats_.blocks_stored_raw;
  }
  stats_.bytes_stored += chunk.size();
  return Status::Ok();
}

Result<Buffer> CompLayer::FillPages(FileState& state, Offset begin,
                                    Offset len, AccessRights* access) {
  RETURN_IF_ERROR(CachedFile<CompLayer>::EnsureAttrs(*this, state));
  Buffer out(len);
  for (Offset off = 0; off < len; off += kPageSize) {
    ASSIGN_OR_RETURN(Buffer page, LoadBlock(state, (begin + off) / kPageSize));
    out.WriteAt(off, page.span());
  }
  // COMPFS holds no per-page rights below: a page it caches is writable.
  *access = AccessRights::kReadWrite;
  return out;
}

Status CompLayer::StorePages(FileState& state,
                             const std::vector<PageRun>& runs) {
  RETURN_IF_ERROR(CachedFile<CompLayer>::EnsureAttrs(*this, state));
  for (const PageRun& run : runs) {
    for (Offset off = 0; off < run.data.size(); off += kPageSize) {
      RETURN_IF_ERROR(StoreBlock(state, (run.offset + off) / kPageSize,
                                 run.data.subspan(off, kPageSize)));
    }
  }
  return state.attrs_dirty ? StoreMeta(state) : Status::Ok();
}

Status CompLayer::SyncBelow(FileState& state) {
  RETURN_IF_ERROR(state.under_data->SyncFile());
  return state.under_meta->SyncFile();
}

Status CompLayer::CutBelow(FileState& state, Offset length) {
  uint64_t keep_blocks = (length + kPageSize - 1) / kPageSize;
  if (state.table.size() > keep_blocks) {
    state.table.resize(keep_blocks);  // orphans chunks (garbage)
  }
  return Status::Ok();
}

Status CompLayer::CompactLocked(FileState& state, uint64_t* reclaimed) {
  RETURN_IF_ERROR(CachedFile<CompLayer>::SyncState(*this, state));
  uint64_t before = state.next_free;
  // Rebuild the chunk store: copy every live chunk into a fresh image.
  Buffer image;
  std::vector<ChunkEntry> new_table = state.table;
  for (size_t i = 0; i < state.table.size(); ++i) {
    const ChunkEntry& entry = state.table[i];
    if (entry.length == 0) {
      continue;
    }
    Buffer chunk(entry.length);
    ASSIGN_OR_RETURN(size_t n, LowerRead(state, entry.offset,
                                         chunk.mutable_span()));
    if (n != entry.length) {
      return ErrCorrupted("compfs chunk truncated during compaction");
    }
    new_table[i].offset = image.size();
    image.append(chunk.span());
  }
  RETURN_IF_ERROR(LowerWrite(state, 0, image.span()));
  RETURN_IF_ERROR(state.under_data->SetLength(image.size()));
  state.table = std::move(new_table);
  state.next_free = image.size();
  RETURN_IF_ERROR(StoreMeta(state));
  if (reclaimed) {
    *reclaimed = before > state.next_free ? before - state.next_free : 0;
  }
  ++stats_.compactions;
  return Status::Ok();
}

Result<uint64_t> CompLayer::Compact(const Name& name,
                                    const Credentials& creds) {
  return InDomain([&]() -> Result<uint64_t> {
    ASSIGN_OR_RETURN(sp<Object> object, Resolve(name, creds));
    auto file = narrow<CachedFile<CompLayer>>(object);
    if (!file) {
      return ErrWrongType("not a compfs file");
    }
    const sp<FileState>& state = file->state();
    std::lock_guard<std::mutex> lock(state->mutex);
    RETURN_IF_ERROR(CachedFile<CompLayer>::EnsureAttrs(*this, *state));
    uint64_t reclaimed = 0;
    RETURN_IF_ERROR(CompactLocked(*state, &reclaimed));
    return reclaimed;
  });
}

void CompLayer::CollectStats(const metrics::StatsEmitter& emit) const {
  emit("blocks_compressed", stats_.blocks_compressed);
  emit("blocks_decompressed", stats_.blocks_decompressed);
  emit("blocks_stored_raw", stats_.blocks_stored_raw);
  emit("bytes_logical", cache_stats_.bytes_written);
  emit("bytes_stored", stats_.bytes_stored);
  emit("compactions", stats_.compactions);
  emit("lower_invalidations", stats_.lower_invalidations);
  emit("data_cache_hits", cache_stats_.data_hits);
  emit("data_cache_misses", cache_stats_.data_misses);
  emit("attr_cache_hits", cache_stats_.attr_hits);
  emit("attr_cache_misses", cache_stats_.attr_misses);
}

void CompLayer::ResetStats() {
  cache_stats_.Reset();
  for (auto* counter :
       {&stats_.blocks_compressed, &stats_.blocks_decompressed,
        &stats_.blocks_stored_raw, &stats_.bytes_stored, &stats_.compactions,
        &stats_.lower_invalidations}) {
    counter->store(0);
  }
}

}  // namespace springfs
