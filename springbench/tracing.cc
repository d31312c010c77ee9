#include "tracing.h"

#include <cstdio>

namespace springbench {

using namespace springfs;

const char* OpName(OpType type) {
  switch (type) {
    case OpType::kOpen:
      return "open";
    case OpType::kClose:
      return "close";
    case OpType::kPread:
      return "pread";
    case OpType::kPwrite:
      return "pwrite";
    case OpType::kFstat:
      return "fstat";
    case OpType::kFsync:
      return "fsync";
    case OpType::kScan:
      return "scan";
    case OpType::kNone:
      break;
  }
  return "none";
}

const char* SeamName(SeamId seam) {
  switch (seam) {
    case SeamId::kOp:
      return "op";
    case SeamId::kPosix:
      return "posix>root";
    case SeamId::kCohDisk:
      return "coherent>disklayer";
    case SeamId::kDfsComp:
      return "dfs_server>compfs";
    case SeamId::kCompSfs:
      return "compfs>sfs";
  }
  return "?";
}

namespace {
// Span names. Resolve is compared by address to total naming time.
const char kResolve[] = "resolve";
}  // namespace

// --- Tracer ------------------------------------------------------------------

void Tracer::BeginOp(OpType type) {
  current_type_ = type;
  op_id_ = ++next_op_id_;
  Begin(OpName(type), SeamId::kOp, Direction::kDown);
  stack_.back().is_op = true;
}

void Tracer::EndOp() {
  End(static_cast<uint32_t>(stack_.size() - 1));
  current_type_ = OpType::kNone;
}

uint32_t Tracer::Begin(const char* name, SeamId seam, Direction dir) {
  uint32_t kept_index = kNoParent;
  if (kept_.size() < max_kept_) {
    uint32_t parent = kNoParent;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kept_index != kNoParent) {
        parent = it->kept_index;
        break;
      }
    }
    kept_index = static_cast<uint32_t>(kept_.size());
    kept_.push_back(Span{name, seam, dir, parent, op_id_, 0, 0});
  } else {
    ++dropped_;
  }
  uint64_t now = WallNs();
  if (kept_index != kNoParent) {
    kept_[kept_index].start_ns = now;
  }
  stack_.push_back(Open{kept_index, now, 0, name, seam, dir, false});
  return static_cast<uint32_t>(stack_.size() - 1);
}

void Tracer::End(uint32_t token) {
  uint64_t now = WallNs();
  // Spans nest strictly (one thread), so the token is always the top.
  if (token + 1 != stack_.size()) {
    std::fprintf(stderr, "springbench: span nesting broken\n");
    std::abort();
  }
  Open open = stack_.back();
  stack_.pop_back();
  uint64_t duration = now - open.start_ns;
  uint64_t self = duration > open.child_ns ? duration - open.child_ns : 0;
  if (open.kept_index != kNoParent) {
    kept_[open.kept_index].end_ns = now;
  }
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  SeamTotals& totals = open.is_op
                           ? op_totals_[static_cast<size_t>(current_type_)]
                           : totals_[static_cast<size_t>(open.seam)]
                                    [static_cast<size_t>(open.dir)];
  ++totals.calls;
  totals.inclusive_ns += duration;
  totals.self_ns += self;
  if (open.name == kResolve && open.dir == Direction::kDown) {
    resolve_ns_[static_cast<size_t>(open.seam)] += duration;
  }
}

void Tracer::ResetWindow() {
  kept_.clear();
  dropped_ = 0;
  totals_ = {};
  op_totals_ = {};
  resolves_ = {};
  resolve_ns_ = {};
}

bool Tracer::WriteSpans(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "id\tparent\top_id\tseam\tdir\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    long long parent = s.parent == kNoParent ? -1 : s.parent;
    std::fprintf(out, "%zu\t%lld\t%llu\t%s\t%s\t%s\t%llu\t%llu\n", i, parent,
                 static_cast<unsigned long long>(s.op_id), SeamName(s.seam),
                 s.dir == Direction::kDown ? "down" : "up", s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

// --- TimingTransport ---------------------------------------------------------

void TimingTransport::Execute(Domain* target, const std::function<void()>& op) {
  uint64_t t0 = WallNs();
  uint64_t t1 = t0;
  uint64_t t2 = t0;
  inner_.Execute(target, [&] {
    t1 = WallNs();
    op();
    t2 = WallNs();
  });
  uint64_t t3 = WallNs();
  own_ns_ += (t1 - t0) + (t3 - t2);
  ++by_op_[static_cast<size_t>(tracer_ ? tracer_->current_op()
                                       : OpType::kNone)];
}

// --- CountingBlockDevice -----------------------------------------------------

Status CountingBlockDevice::ReadBlock(BlockNum block, MutableByteSpan out) {
  uint64_t start = WallNs();
  Status status = base_->ReadBlock(block, out);
  busy_ns_ += WallNs() - start;
  return status;
}

Status CountingBlockDevice::WriteBlock(BlockNum block, ByteSpan data) {
  uint64_t start = WallNs();
  Status status = base_->WriteBlock(block, data);
  busy_ns_ += WallNs() - start;
  return status;
}

Status CountingBlockDevice::Flush() {
  uint64_t start = WallNs();
  Status status = base_->Flush();
  busy_ns_ += WallNs() - start;
  return status;
}

// --- interposers -------------------------------------------------------------

namespace {

enum Kind { kKindFs, kKindContext, kKindFile, kKindManager, kKindPager,
            kKindCache };

// Common state of every interposer: the seam and the object it wraps.
template <typename T>
class Wrapper {
 protected:
  Wrapper(Seam* seam, sp<T> inner) : seam_(seam), inner_(std::move(inner)) {}

  // Runs `call` inside a span at this seam.
  template <typename F>
  auto Traced(const char* name, Direction dir, F&& call) const {
    SpanScope span(seam_->tracer(), name, seam_->id(), dir);
    return call();
  }
  template <typename F>
  auto Down(const char* name, F&& call) const {
    return Traced(name, Direction::kDown, std::forward<F>(call));
  }

  Seam* seam_;
  sp<T> inner_;
};

// Wraps the objects a Resolve/CreateContext hands back across the seam.
Result<sp<Object>> WrapResult(Seam* seam, Result<sp<Object>> result) {
  if (!result.ok()) {
    return result;
  }
  return seam->WrapObject(std::move(*result));
}

// The naming_context surface shared by SeamContext and SeamFs.
template <typename Base, typename T>
class ContextWrapper : public Base, protected Wrapper<T> {
 public:
  ContextWrapper(Seam* seam, sp<T> inner)
      : Wrapper<T>(seam, std::move(inner)) {}

  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override {
    this->seam_->tracer()->CountResolve(this->seam_->id());
    return this->Down(kResolve, [&] {
      return WrapResult(this->seam_, this->inner_->Resolve(name, creds));
    });
  }
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace) override {
    return this->Down("bind", [&] {
      return this->inner_->Bind(name, this->seam_->Unwrap(std::move(object)),
                                creds, replace);
    });
  }
  Status Unbind(const Name& name, const Credentials& creds) override {
    return this->Down("unbind",
                      [&] { return this->inner_->Unbind(name, creds); });
  }
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override {
    return this->Down("list", [&] { return this->inner_->List(creds); });
  }
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override {
    return this->Down("create_context", [&]() -> Result<sp<Context>> {
      Result<sp<Context>> created = this->inner_->CreateContext(name, creds);
      if (!created.ok()) {
        return created;
      }
      return this->seam_->WrapContext(std::move(*created));
    });
  }
};

class SeamContext : public ContextWrapper<Context, Context> {
 public:
  using ContextWrapper::ContextWrapper;
};

class SeamFs : public ContextWrapper<StackableFs, StackableFs> {
 public:
  using ContextWrapper::ContextWrapper;

  Status StackOn(sp<StackableFs> underlying) override {
    return Down("stack_on",
                [&] { return inner_->StackOn(std::move(underlying)); });
  }
  Result<sp<File>> CreateFile(const Name& name,
                              const Credentials& creds) override {
    return Down("create_file", [&]() -> Result<sp<File>> {
      Result<sp<File>> created = inner_->CreateFile(name, creds);
      if (!created.ok()) {
        return created;
      }
      return seam_->WrapFile(std::move(*created));
    });
  }
  Result<FsInfo> GetFsInfo() override {
    return Down("fs_info", [&] { return inner_->GetFsInfo(); });
  }
  Status SyncFs() override {
    return Down("sync_fs", [&] { return inner_->SyncFs(); });
  }
};

class SeamFile : public File, protected Wrapper<File> {
 public:
  SeamFile(Seam* seam, sp<File> inner) : Wrapper(seam, std::move(inner)) {}

  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights access) override {
    return Down("bind", [&] {
      return inner_->Bind(seam_->WrapManager(caller), access);
    });
  }
  Result<Offset> GetLength() override {
    return Down("get_length", [&] { return inner_->GetLength(); });
  }
  Status SetLength(Offset length) override {
    return Down("set_length", [&] { return inner_->SetLength(length); });
  }
  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return Down("read", [&] { return inner_->Read(offset, out); });
  }
  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return Down("write", [&] { return inner_->Write(offset, data); });
  }
  Result<FileAttributes> Stat() override {
    return Down("stat", [&] { return inner_->Stat(); });
  }
  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return Down("set_times",
                [&] { return inner_->SetTimes(atime_ns, mtime_ns); });
  }
  Status SyncFile() override {
    return Down("sync_file", [&] { return inner_->SyncFile(); });
  }
};

// A cache manager above the seam: channel set-up is an up-call.
class SeamManager : public CacheManager, protected Wrapper<CacheManager> {
 public:
  SeamManager(Seam* seam, sp<CacheManager> inner)
      : Wrapper(seam, std::move(inner)) {}

  Result<ChannelSetup> EstablishChannel(uint64_t pager_key,
                                        sp<PagerObject> pager) override {
    return Traced("establish_channel", Direction::kUp,
                  [&]() -> Result<ChannelSetup> {
      Result<ChannelSetup> setup = inner_->EstablishChannel(
          pager_key, seam_->WrapPager(std::move(pager)));
      if (!setup.ok()) {
        return setup;
      }
      ChannelSetup wrapped = std::move(*setup);
      wrapped.cache = seam_->WrapCache(std::move(wrapped.cache));
      return wrapped;
    });
  }
  std::string cache_manager_name() const override {
    return inner_->cache_manager_name();
  }
};

// Pager objects below the seam; Base is PagerObject or FsPagerObject so a
// narrow to fs_pager succeeds exactly when it would without the seam.
template <typename Base>
class SeamPagerT : public Base, protected Wrapper<Base> {
 public:
  SeamPagerT(Seam* seam, sp<Base> inner)
      : Wrapper<Base>(seam, std::move(inner)) {}

  Result<Buffer> PageIn(Offset offset, Offset size,
                        AccessRights access) override {
    return this->Down("page_in", [&] {
      return this->inner_->PageIn(offset, size, access);
    });
  }
  Status PageOut(Offset offset, ByteSpan data) override {
    return this->Down("page_out",
                      [&] { return this->inner_->PageOut(offset, data); });
  }
  Status WriteOut(Offset offset, ByteSpan data) override {
    return this->Down("write_out",
                      [&] { return this->inner_->WriteOut(offset, data); });
  }
  Status Sync(Offset offset, ByteSpan data) override {
    return this->Down("pager_sync",
                      [&] { return this->inner_->Sync(offset, data); });
  }
  void DoneWithPagerObject() override {
    this->Down("done_with_pager",
               [&] { this->inner_->DoneWithPagerObject(); });
  }
};

class SeamFsPager : public SeamPagerT<FsPagerObject> {
 public:
  using SeamPagerT::SeamPagerT;

  Result<FileAttributes> GetAttributes() override {
    return Down("get_attributes", [&] { return inner_->GetAttributes(); });
  }
  Status WriteAttributes(const AttrUpdate& update) override {
    return Down("write_attributes",
                [&] { return inner_->WriteAttributes(update); });
  }
};

// Cache objects above the seam: every call is an up-call.
template <typename Base>
class SeamCacheT : public Base, protected Wrapper<Base> {
 public:
  SeamCacheT(Seam* seam, sp<Base> inner)
      : Wrapper<Base>(seam, std::move(inner)) {}

  Result<std::vector<BlockData>> FlushBack(Range range) override {
    return Up("flush_back", [&] { return this->inner_->FlushBack(range); });
  }
  Result<std::vector<BlockData>> DenyWrites(Range range) override {
    return Up("deny_writes", [&] { return this->inner_->DenyWrites(range); });
  }
  Result<std::vector<BlockData>> WriteBack(Range range) override {
    return Up("write_back", [&] { return this->inner_->WriteBack(range); });
  }
  Status DeleteRange(Range range) override {
    return Up("delete_range",
              [&] { return this->inner_->DeleteRange(range); });
  }
  Status ZeroFill(Range range) override {
    return Up("zero_fill", [&] { return this->inner_->ZeroFill(range); });
  }
  Status Populate(Offset offset, AccessRights access, ByteSpan data) override {
    return Up("populate", [&] {
      return this->inner_->Populate(offset, access, data);
    });
  }
  Status DestroyCache() override {
    return Up("destroy_cache", [&] { return this->inner_->DestroyCache(); });
  }

 protected:
  template <typename F>
  auto Up(const char* name, F&& call) const {
    return this->Traced(name, Direction::kUp, std::forward<F>(call));
  }
};

class SeamFsCache : public SeamCacheT<FsCacheObject> {
 public:
  using SeamCacheT::SeamCacheT;

  Status InvalidateAttributes() override {
    return Up("invalidate_attributes",
              [&] { return inner_->InvalidateAttributes(); });
  }
  Result<AttrUpdate> RecallAttributes() override {
    return Up("recall_attributes",
              [&] { return inner_->RecallAttributes(); });
  }
};

}  // namespace

template <typename W, int kKind, typename T>
sp<W> Seam::Canonical(const sp<T>& inner) {
  // The most-derived address: one object reached through different
  // interface pointers still maps to one wrapper.
  auto key = std::make_pair(kKind, dynamic_cast<const void*>(inner.get()));
  auto it = wrappers_.find(key);
  if (it != wrappers_.end()) {
    return std::dynamic_pointer_cast<W>(it->second);
  }
  auto wrapper = std::make_shared<W>(this, inner);
  wrappers_.emplace(key, wrapper);
  wrapped_by_wrapper_.emplace(dynamic_cast<const void*>(wrapper.get()), inner);
  return wrapper;
}

sp<StackableFs> Seam::WrapFs(sp<StackableFs> fs) {
  if (!fs) {
    return fs;
  }
  return Canonical<SeamFs, kKindFs>(fs);
}

sp<Context> Seam::WrapContext(sp<Context> ctx) {
  if (!ctx) {
    return ctx;
  }
  if (sp<StackableFs> fs = narrow<StackableFs>(ctx)) {
    return WrapFs(std::move(fs));
  }
  return Canonical<SeamContext, kKindContext>(ctx);
}

sp<File> Seam::WrapFile(sp<File> file) {
  if (!file) {
    return file;
  }
  return Canonical<SeamFile, kKindFile>(file);
}

sp<Object> Seam::WrapObject(sp<Object> object) {
  if (sp<File> file = narrow<File>(object)) {
    return WrapFile(std::move(file));
  }
  if (sp<Context> ctx = narrow<Context>(object)) {
    return WrapContext(std::move(ctx));
  }
  return object;
}

sp<CacheManager> Seam::WrapManager(sp<CacheManager> manager) {
  if (!manager) {
    return manager;
  }
  return Canonical<SeamManager, kKindManager>(manager);
}

sp<PagerObject> Seam::WrapPager(sp<PagerObject> pager) {
  if (!pager) {
    return pager;
  }
  if (sp<FsPagerObject> fs_pager = narrow<FsPagerObject>(pager)) {
    return Canonical<SeamFsPager, kKindPager>(fs_pager);
  }
  return Canonical<SeamPagerT<PagerObject>, kKindPager>(pager);
}

sp<CacheObject> Seam::WrapCache(sp<CacheObject> cache) {
  if (!cache) {
    return cache;
  }
  if (sp<FsCacheObject> fs_cache = narrow<FsCacheObject>(cache)) {
    return Canonical<SeamFsCache, kKindCache>(fs_cache);
  }
  return Canonical<SeamCacheT<CacheObject>, kKindCache>(cache);
}

sp<Object> Seam::Unwrap(sp<Object> object) const {
  auto it = wrapped_by_wrapper_.find(dynamic_cast<const void*>(object.get()));
  return it == wrapped_by_wrapper_.end() ? object : it->second;
}

void Seam::Clear() {
  wrappers_.clear();
  wrapped_by_wrapper_.clear();
}

}  // namespace springbench
