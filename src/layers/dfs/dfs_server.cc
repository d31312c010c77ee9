#include "src/layers/dfs/dfs_server.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"

namespace springfs::dfs {
namespace {

net::Frame OkFrame() { return net::Frame{}; }

net::Frame PayloadFrame(Buffer payload) {
  net::Frame frame;
  frame.payload = std::move(payload);
  return frame;
}

// Monotonic boot-epoch source shared by every server instance in the
// process: a restarted server (new DfsServer on the same node/service)
// necessarily gets a larger epoch than its predecessor.
uint64_t NextBootEpoch() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

// Delegation ids are process-global and never reused, so an id minted by a
// restarted server can never collide with one its predecessor handed out.
uint64_t NextDelegId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

// Ops that modify server state — rejected during the post-boot grace
// period and counted toward the dedup-window policy.
bool IsMutating(Op op) {
  switch (op) {
    case Op::kCreate:
    case Op::kMkdir:
    case Op::kRemove:
    case Op::kWrite:
    case Op::kSetTimes:
    case Op::kSetLength:
    case Op::kPageOut:
    case Op::kWriteOut:
    case Op::kSyncPages:
      return true;
    default:
      return false;
  }
}

// Every handle-carrying request struct puts its handle in the first 8
// bytes of the body (see wire.h), so the compound executor can substitute
// the current-handle register with a fixed-offset patch.
bool CarriesLeadingHandle(Op op) {
  switch (op) {
    case Op::kLookup:
    case Op::kCreate:
    case Op::kMkdir:
    case Op::kRemove:
    case Op::kReadDir:
    case Op::kCompound:
    case Op::kGetStats:
    case Op::kGetHealth:
      return false;
    default:
      return static_cast<uint32_t>(op) < 100;  // callbacks excluded
  }
}

// Lazily-created per-op server metrics: "dfs/op/<name>.calls" and
// "dfs/op/<name>.latency_ns" in the process registry. Keyed by op, not by
// server instance — like the registry itself, the histograms aggregate
// across every server in the process.
metrics::OpMetric& OpMetricFor(Op op) {
  static std::mutex mutex;
  static auto* by_op = new std::map<uint32_t, metrics::OpMetric>();
  std::lock_guard<std::mutex> lock(mutex);
  auto it = by_op->find(static_cast<uint32_t>(op));
  if (it == by_op->end()) {
    it = by_op->emplace(static_cast<uint32_t>(op),
                        metrics::OpMetric(std::string("dfs/op/") +
                                          OpName(op))).first;
  }
  return it->second;
}

}  // namespace

// Converts a Status error into an error frame from inside a handler.
#define RETURN_FRAME_IF_ERROR(expr)     \
  do {                                  \
    ::springfs::Status _st = (expr);    \
    if (!_st.ok()) {                    \
      return StatusFrame(_st);          \
    }                                   \
  } while (0)
// Binds `lhs` to the value of the Result `expr` from inside a handler, or
// returns its error as an error frame.
#define ASSIGN_OR_RETURN_FRAME(lhs, expr)                                 \
  ASSIGN_OR_RETURN_FRAME_IMPL_(SPRINGFS_CONCAT_(_frame_res_, __LINE__), \
                               lhs, expr)
#define ASSIGN_OR_RETURN_FRAME_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) {                                   \
    return StatusFrame(tmp.status());                \
  }                                                  \
  lhs = tmp.take_value()

// A remote client cache, reachable only through the DFS protocol. The
// server's per-file CoherencyEngine treats it like any cache object.
class RemoteCacheProxy : public FsCacheObject {
 public:
  RemoteCacheProxy(DfsServer* server, std::string client_node,
                   std::string client_service, uint64_t client_channel)
      : server_(server), client_node_(std::move(client_node)),
        client_service_(std::move(client_service)),
        client_channel_(client_channel) {}

  Result<std::vector<BlockData>> FlushBack(Range range) override {
    return Callback(Op::kCbFlushBack, range);
  }
  Result<std::vector<BlockData>> DenyWrites(Range range) override {
    return Callback(Op::kCbDenyWrites, range);
  }
  Result<std::vector<BlockData>> WriteBack(Range range) override {
    // Flush-and-return is the only recall primitive the wire protocol
    // needs; write_back (retain in place) degrades to it safely.
    return Callback(Op::kCbFlushBack, range);
  }
  Status DeleteRange(Range range) override {
    return Callback(Op::kCbFlushBack, range).status();
  }
  Status ZeroFill(Range range) override {
    return Callback(Op::kCbFlushBack, range).status();
  }
  Status Populate(Offset, AccessRights, ByteSpan) override {
    return ErrNotSupported("populate over the DFS protocol");
  }
  Status DestroyCache() override {
    return Callback(Op::kCbFlushBack, Range::All()).status();
  }

  Status InvalidateAttributes() override {
    CbAttrInvalidateRequest body;
    body.client_channel = client_channel_;
    net::Frame request;
    request.type = static_cast<uint32_t>(Op::kCbAttrInvalidate);
    request.payload = body.Encode();
    ASSIGN_OR_RETURN(net::Frame response, server_->SendCallback(
                                              client_node_, client_service_,
                                              request));
    return response.ToStatus();
  }
  Result<AttrUpdate> RecallAttributes() override { return AttrUpdate{}; }

 private:
  Result<std::vector<BlockData>> Callback(Op op, Range range) {
    trace::ScopedSpan span("dfs.callback");
    CbRecallRequest body;
    body.client_channel = client_channel_;
    body.offset = range.offset;
    body.size = range.size;
    net::Frame request;
    request.type = static_cast<uint32_t>(op);
    request.payload = body.Encode();
    ASSIGN_OR_RETURN(net::Frame response, server_->SendCallback(
                                              client_node_, client_service_,
                                              request));
    RETURN_IF_ERROR(response.ToStatus());
    ASSIGN_OR_RETURN(CbRecallResponse resp,
                     CbRecallResponse::Decode(response.payload.span()));
    return resp.blocks;
  }

  DfsServer* server_;
  std::string client_node_;
  std::string client_service_;
  uint64_t client_channel_;
};

// A delegation holder as seen by the per-file deleg_engine. A "recall"
// here is one kCbRecallDeleg round trip; the response doubles as the
// return and may carry attr writes the holder buffered under a write
// delegation. Those are stashed (NOT applied inline — the engine runs
// callbacks under file->mutex, and SetTimes can re-enter the lower
// coherency path which takes the same lock) and applied by the server
// after the locked section.
class DelegationProxy : public FsCacheObject {
 public:
  DelegationProxy(DfsServer* server, std::string client_node,
                  std::string client_service, uint64_t deleg_id)
      : server_(server), client_node_(std::move(client_node)),
        client_service_(std::move(client_service)), deleg_id_(deleg_id) {}

  void set_incarnation(uint64_t incarnation) { incarnation_ = incarnation; }

  std::optional<std::pair<uint64_t, uint64_t>> TakeDirtyTimes() {
    std::lock_guard<std::mutex> lock(mutex_);
    auto times = dirty_times_;
    dirty_times_.reset();
    return times;
  }

  Result<std::vector<BlockData>> FlushBack(Range) override { return Recall(); }
  Result<std::vector<BlockData>> DenyWrites(Range) override {
    return Recall();
  }
  Result<std::vector<BlockData>> WriteBack(Range) override { return Recall(); }
  Status DeleteRange(Range) override { return Recall().status(); }
  Status ZeroFill(Range) override { return Recall().status(); }
  Status Populate(Offset, AccessRights, ByteSpan) override {
    return ErrNotSupported("populate on a delegation");
  }
  Status DestroyCache() override { return Recall().status(); }
  Status InvalidateAttributes() override { return Status::Ok(); }
  Result<AttrUpdate> RecallAttributes() override { return AttrUpdate{}; }

 private:
  Result<std::vector<BlockData>> Recall() {
    trace::ScopedSpan span("dfs.recall_deleg");
    CbRecallDelegRequest body;
    body.deleg_id = deleg_id_;
    body.incarnation = incarnation_;
    net::Frame request;
    request.type = static_cast<uint32_t>(Op::kCbRecallDeleg);
    request.payload = body.Encode();
    ASSIGN_OR_RETURN(net::Frame response, server_->SendCallback(
                                              client_node_, client_service_,
                                              request));
    RETURN_IF_ERROR(response.ToStatus());
    ASSIGN_OR_RETURN(CbRecallDelegResponse resp,
                     CbRecallDelegResponse::Decode(response.payload.span()));
    if (resp.has_times) {
      std::lock_guard<std::mutex> lock(mutex_);
      dirty_times_ = std::make_pair(resp.atime_ns, resp.mtime_ns);
    }
    // A delegation never holds dirty pages — data writes go to the wire —
    // so there is nothing to flush back.
    return std::vector<BlockData>{};
  }

  DfsServer* server_;
  std::string client_node_;
  std::string client_service_;
  uint64_t deleg_id_;
  uint64_t incarnation_ = 0;
  std::mutex mutex_;
  std::optional<std::pair<uint64_t, uint64_t>> dirty_times_;
};

// The server's cache object toward the layer below: callbacks propagate to
// the remote clients (no local data cache to maintain).
class DfsLowerCacheObject : public FsCacheObject, public Servant {
 public:
  DfsLowerCacheObject(sp<Domain> domain, sp<DfsServer> server,
                      sp<DfsServer::ServerFile> file)
      : Servant(std::move(domain)), server_(std::move(server)),
        file_(std::move(file)) {}

  Result<std::vector<BlockData>> FlushBack(Range range) override {
    return Recall(range, AccessRights::kReadWrite);
  }
  Result<std::vector<BlockData>> DenyWrites(Range range) override {
    return Recall(range, AccessRights::kReadOnly);
  }
  Result<std::vector<BlockData>> WriteBack(Range range) override {
    return Recall(range, AccessRights::kReadOnly);
  }
  Status DeleteRange(Range range) override {
    return Recall(range, AccessRights::kReadWrite).status();
  }
  Status ZeroFill(Range range) override {
    return Recall(range, AccessRights::kReadWrite).status();
  }
  Status Populate(Offset, AccessRights, ByteSpan) override {
    return Status::Ok();  // the server caches nothing
  }
  Status DestroyCache() override {
    return InDomain([&]() -> Status {
      file_->lower->Drop();
      return Status::Ok();
    });
  }

  Status InvalidateAttributes() override {
    return InDomain([&]() -> Status {
      std::lock_guard<std::mutex> lock(file_->mutex);
      return server_->BroadcastAttrInvalidate(*file_, 0);
    });
  }
  Result<AttrUpdate> RecallAttributes() override { return AttrUpdate{}; }

 private:
  Result<std::vector<BlockData>> Recall(Range range, AccessRights access) {
    return InDomain([&]() -> Result<std::vector<BlockData>> {
      trace::ScopedSpan span("dfs.lower_recall");
      server_->NoteLowerFlush();
      // Local conflicts recall delegations too: a local writer must not
      // race a remote holder's zero-round-trip serves.
      RETURN_IF_ERROR(server_->RecallConflicting(file_, 0, access));
      std::lock_guard<std::mutex> lock(file_->mutex);
      // The dirty data recovered from remote caches IS the modified data
      // the layer below is asking for.
      Result<std::vector<BlockData>> recovered =
          file_->engine.Acquire(0, range, access);
      if (recovered.ok()) {
        server_->PruneEvicted(*file_);
      }
      return recovered;
    });
  }

  sp<DfsServer> server_;
  sp<DfsServer::ServerFile> file_;
};

// The local view of an exported file (Figure 7): binds are forwarded to the
// underlying file, data/attr operations delegate directly.
class DfsLocalFile : public File, public Servant {
 public:
  DfsLocalFile(sp<Domain> domain, sp<DfsServer> server, sp<File> under)
      : Servant(std::move(domain)), server_(std::move(server)),
        under_(std::move(under)) {}

  const sp<File>& under() const { return under_; }

  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights requested_access) override {
    // "When the VMM binds to a locally managed DFS file, DFS reroutes the
    // VMM to the SFS, so that the VMM ends up dealing with SFS directly."
    // The forwarding itself shows up as a span, but DFS never appears in
    // the resulting channel's page-in/page-out traces (Figure 7).
    trace::ScopedSpan span("dfs.bind_forward");
    return under_->Bind(caller, requested_access);
  }
  Result<Offset> GetLength() override { return under_->GetLength(); }
  Status SetLength(Offset length) override { return under_->SetLength(length); }
  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return under_->Read(offset, out);
  }
  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return under_->Write(offset, data);
  }
  Result<FileAttributes> Stat() override { return under_->Stat(); }
  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return under_->SetTimes(atime_ns, mtime_ns);
  }
  Status SyncFile() override { return under_->SyncFile(); }

 private:
  sp<DfsServer> server_;
  sp<File> under_;
};

Result<sp<DfsServer>> DfsServer::Create(const sp<net::Node>& node,
                                        net::Network* network,
                                        const std::string& service,
                                        sp<StackableFs> under, Clock* clock,
                                        const DfsServerOptions& options) {
  sp<DfsServer> server(new DfsServer(node, network, service, std::move(under),
                                     clock, options));
  server->Listen();
  return server;
}

void DfsServer::Listen() {
  net::SetFrameTypeNamer(&OpNamer);
  wp<DfsServer> weak =
      std::dynamic_pointer_cast<DfsServer>(shared_from_this());
  node_->RegisterService(service_, [weak](const net::Frame& request) {
    sp<DfsServer> strong = weak.lock();
    if (!strong) {
      return net::Frame::Error(ErrorCode::kDeadObject);
    }
    return strong->Handle(request);
  });
}

net::Frame DfsServer::StatusFrame(const Status& st) {
  if (st.ok()) {
    return OkFrame();
  }
  net::Frame frame = net::Frame::Error(st.code());
  frame.payload = Buffer(st.message());
  return frame;
}

DfsServer::DfsServer(const sp<net::Node>& node, net::Network* network,
                     std::string service, sp<StackableFs> under, Clock* clock,
                     const DfsServerOptions& options)
    : StackedLayer(node->domain(), std::move(under)), node_(node),
      network_(network), service_(std::move(service)), clock_(clock),
      options_(options), boot_epoch_(NextBootEpoch()),
      boot_time_(clock->Now()), dedup_(options.dedup_window) {
  // Handles are unique across instances, not just within one: a restarted
  // server starts its handle space at a fresh boot-epoch prefix, so a
  // client's stale handle can never silently resolve to a *different* file
  // on the new incumbent — it always gets kStale and re-resolves by path.
  // (The striped client relies on this to fence writes per data server.)
  next_handle_ = (boot_epoch_ << 32) + 1;
  metrics::Registry::Global().RegisterProvider(this);
}

DfsServer::~DfsServer() {
  metrics::Registry::Global().UnregisterProvider(this);
  // Leave a tombstone rather than unregistering: clients that still hold
  // the mount get a definite kDeadObject (the object died) instead of
  // kNotFound (no such service), and never hang on a dead server.
  node_->RegisterService(service_, [](const net::Frame&) {
    return net::Frame::Error(ErrorCode::kDeadObject);
  });
}

Result<net::Frame> DfsServer::SendCallback(const std::string& to_node,
                                           const std::string& to_service,
                                           const net::Frame& request) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.callbacks_sent;
  }
  // A recall hands the client's dirty blocks (or buffered attributes) over
  // in its response and is not safe to run twice: the request id lets the
  // client's callback service replay that response to a retransmission.
  net::Frame stamped = request;
  stamped.request_id = NewRequestId();
  return network_->Call(node_->name(), to_node, to_service, stamped);
}

Result<net::Frame> DfsServer::CallPeer(const std::string& to_node,
                                       const std::string& to_service,
                                       const net::Frame& request) {
  return network_->Call(node_->name(), to_node, to_service, request);
}

void DfsServer::NoteLowerFlush() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.lower_flushes;
}

bool DfsServer::InGracePeriod() const {
  return options_.grace_ns != 0 &&
         clock_->Now() < boot_time_ + options_.grace_ns;
}

Result<sp<DfsServer::ServerFile>> DfsServer::FileForPath(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handles_by_path_.find(path);
    if (it != handles_by_path_.end()) {
      return files_by_handle_.at(it->second);
    }
  }
  ASSIGN_OR_RETURN(sp<File> under_file,
                   ResolveAs<File>(under_, path, Credentials::System()));
  auto file = std::make_shared<ServerFile>();
  file->path = path;
  file->under = std::move(under_file);
  file->engine.ConfigureLeases(clock_, options_.lease_ns);
  file->deleg_engine.ConfigureLeases(clock_, options_.lease_ns);
  // Conservative eviction for delegations: an unreachable holder may still
  // be serving opens/attrs locally, so it keeps its claim (and conflicting
  // ops fail transiently) until the lease provably lapsed.
  file->deleg_engine.SetEvictUnreachableBeforeExpiry(false);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles_by_path_.find(path);
  if (it != handles_by_path_.end()) {
    return files_by_handle_.at(it->second);
  }
  file->handle = next_handle_++;
  files_by_handle_[file->handle] = file;
  handles_by_path_[path] = file->handle;
  return file;
}

std::vector<sp<DfsServer::ServerFile>> DfsServer::AllFiles() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<sp<ServerFile>> files;
  files.reserve(files_by_handle_.size());
  for (const auto& [handle, file] : files_by_handle_) {
    files.push_back(file);
  }
  return files;
}

Result<sp<DfsServer::ServerFile>> DfsServer::FileForHandle(uint64_t handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_by_handle_.find(handle);
  if (it == files_by_handle_.end()) {
    return ErrStale("unknown DFS handle " + std::to_string(handle));
  }
  return it->second;
}

Status DfsServer::EnsureBoundBelow(const sp<ServerFile>& file) {
  return file->lower->Ensure(*file->under, [&] {
    return std::make_shared<DfsLowerCacheObject>(
        domain(), std::dynamic_pointer_cast<DfsServer>(shared_from_this()),
        file);
  });
}

void DfsServer::PruneEvicted(ServerFile& file) {
  for (auto it = file.remote_caches.begin(); it != file.remote_caches.end();) {
    it = file.engine.HasCache(it->first) ? std::next(it)
                                         : file.remote_caches.erase(it);
  }
}

void DfsServer::PruneDelegations(
    ServerFile& file,
    std::vector<std::pair<uint64_t, uint64_t>>* dirty_times) {
  uint64_t now = clock_->Now();
  for (auto it = file.delegations.begin(); it != file.delegations.end();) {
    DelegationInfo& info = it->second;
    bool engine_gone = !file.deleg_engine.HasCache(info.deleg_id);
    bool expired = now >= info.expires_at;
    if (!engine_gone && !expired) {
      ++it;
      continue;
    }
    if (!engine_gone) {
      file.deleg_engine.RemoveCache(info.deleg_id);
    }
    if (auto times = info.proxy->TakeDirtyTimes()) {
      dirty_times->push_back(*times);
    }
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      if (expired) {
        ++stats_.delegations_expired;
      } else {
        ++stats_.delegations_recalled;
      }
    }
    flight::Record(flight::Severity::kInfo, "dfs",
                   expired ? "delegation expired" : "delegation evicted",
                   info.deleg_id, file.handle);
    it = file.delegations.erase(it);
  }
}

Status DfsServer::RecallConflicting(const sp<ServerFile>& file,
                                    uint64_t except_deleg,
                                    AccessRights access) {
  std::vector<std::pair<uint64_t, uint64_t>> dirty_times;
  Status result = Status::Ok();
  {
    std::lock_guard<std::mutex> lock(file->mutex);
    if (file->delegations.empty()) {
      return Status::Ok();
    }
    PruneDelegations(*file, &dirty_times);
    std::vector<uint64_t> conflicts;
    for (const auto& [id, info] : file->delegations) {
      if (id == except_deleg) {
        continue;
      }
      if (access == AccessRights::kReadOnly &&
          info.kind != DelegationKind::kWrite) {
        continue;  // readers coexist with read delegations
      }
      conflicts.push_back(id);
    }
    if (!conflicts.empty()) {
      uint64_t requester =
          file->deleg_engine.HasCache(except_deleg) ? except_deleg : 0;
      Result<std::vector<BlockData>> recalled = file->deleg_engine.Acquire(
          requester, Range{0, kPageSize}, access);
      if (!recalled.ok()) {
        // Conservative mode: the holder is unreachable but its lease has
        // not lapsed — the op fails transiently rather than racing the
        // holder's local serves.
        result = recalled.status();
      } else {
        for (uint64_t id : conflicts) {
          auto it = file->delegations.find(id);
          if (it == file->delegations.end()) {
            continue;  // already pruned by an engine eviction
          }
          if (file->deleg_engine.HasCache(id)) {
            file->deleg_engine.RemoveCache(id);
          }
          if (auto times = it->second.proxy->TakeDirtyTimes()) {
            dirty_times.push_back(*times);
          }
          {
            std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            ++stats_.delegations_recalled;
          }
          flight::Record(flight::Severity::kInfo, "dfs", "delegation recalled",
                         id, file->handle);
          file->delegations.erase(it);
        }
      }
    }
  }
  // Apply buffered attr writes outside the lock: SetTimes can re-enter the
  // lower coherency path, which takes file->mutex again.
  for (const auto& [atime, mtime] : dirty_times) {
    Status st = file->under->SetTimes(atime, mtime);
    if (!st.ok() && result.ok()) {
      result = st;
    }
  }
  return result;
}

Status DfsServer::PushRecovered(ServerFile& file,
                                const std::vector<BlockData>& blocks) {
  if (blocks.empty()) {
    return Status::Ok();
  }
  ASSIGN_OR_RETURN(sp<PagerObject> pager, file.lower->pager());
  for (const BlockData& block : blocks) {
    Buffer page = block.data;
    page.resize(kPageSize);
    RETURN_IF_ERROR(pager->Sync(block.offset, page.span()));
  }
  return Status::Ok();
}

Status DfsServer::RecallRemote(ServerFile& file, uint64_t requester,
                               Range range, AccessRights access) {
  ASSIGN_OR_RETURN(std::vector<BlockData> recovered,
                   file.engine.Acquire(requester, range, access));
  PruneEvicted(file);
  return PushRecovered(file, recovered);
}

net::Frame DfsServer::FenceStale(ServerFile& file, uint64_t cache_id,
                                 bool page_out) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.stale_fenced;
  }
  flight::Record(flight::Severity::kError, "dfs",
                 page_out ? "stale fence page_out" : "stale fence page_in",
                 cache_id, file.handle);
  return StatusFrame(ErrStale(std::string(page_out ? "page-out" : "page-in") +
                              " from evicted cache id " +
                              std::to_string(cache_id)));
}

Status DfsServer::BroadcastAttrInvalidate(ServerFile& file,
                                          uint64_t except_cache_id) {
  for (const auto& [cache_id, info] : file.remote_caches) {
    if (cache_id == except_cache_id || !info.is_fs_cache) {
      continue;
    }
    CbAttrInvalidateRequest body;
    body.client_channel = info.client_channel;
    net::Frame request;
    request.type = static_cast<uint32_t>(Op::kCbAttrInvalidate);
    request.payload = body.Encode();
    Result<net::Frame> response =
        SendCallback(info.node, info.service, request);
    if (!response.ok() &&
        response.code() != ErrorCode::kConnectionLost) {
      return response.status();
    }
  }
  return Status::Ok();
}

// --- protocol dispatch ---

net::Frame DfsServer::Handle(const net::Frame& request) {
  Op op = static_cast<Op>(request.type);
  // One TimedOp per served frame: counts the call and records dispatch
  // time into the per-op latency histogram ("dfs/op/<name>.latency_ns"),
  // and its span is the server-domain anchor of the caller's tree — we
  // adopt the trace context the client stamped into the frame header, so
  // client dfs.page_in -> net.call -> dfs.serve -> UFS/VMM spans share one
  // trace_id across the wire.
  metrics::TimedOp timed(OpMetricFor(op), "dfs.serve");
  timed.span().AdoptRemote(
      trace::TraceContext{request.trace_id, request.parent_span_id});
  uint64_t start_ns = clock_->Now();
  net::Frame response = HandleFrame(op, request, timed.span());
  NoteSlowOp(op, request, clock_->Now() - start_ns);
  response.epoch = boot_epoch_;
  return response;
}

net::Frame DfsServer::HandleFrame(Op op, const net::Frame& request,
                                  trace::ScopedSpan& span) {
  // Mutating requests carry a client-generated request id: a
  // retransmission (the original response was lost in flight) replays the
  // stored response instead of applying the operation twice. A compound
  // frame is deduplicated as a unit: the stored response replays every
  // sub-op result, so a retransmitted compound never re-executes a
  // mutating sub-op.
  if (request.request_id != 0) {
    if (std::optional<net::Frame> replay = dedup_.Find(request.request_id)) {
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.dedup_hits;
      }
      if (span.active()) {
        span.Annotate("dedup replay request_id=" +
                      std::to_string(request.request_id));
      }
      flight::Record(flight::Severity::kWarn, "dfs", "dedup replay",
                     request.request_id, request.type);
      return *replay;  // caller stamps the boot epoch
    }
  }
  net::Frame response = Dispatch(op, request);
  // kTimedOut responses (grace rejects, acquire timeouts) mean the op did
  // NOT execute; keeping them out of the window lets a retransmission
  // re-execute instead of replaying the transient failure forever.
  if (request.request_id != 0 &&
      response.ToStatus().code() != ErrorCode::kTimedOut) {
    dedup_.Insert(request.request_id, response);
  }
  return response;
}

void DfsServer::NoteSlowOp(Op op, const net::Frame& request,
                           uint64_t elapsed_ns) {
  if (options_.slow_op_threshold_ns == 0 ||
      elapsed_ns < options_.slow_op_threshold_ns ||
      options_.slow_op_ring == 0) {
    return;
  }
  SlowOp slow;
  slow.op = op;
  if (CarriesLeadingHandle(op) && request.payload.size() >= 8) {
    for (int i = 7; i >= 0; --i) {
      slow.handle = (slow.handle << 8) | request.payload.span()[i];
    }
  }
  slow.bytes = request.payload.size();
  slow.elapsed_ns = elapsed_ns;
  slow.trace_id = request.trace_id;
  slow.at_ns = clock_->Now();
  {
    std::lock_guard<std::mutex> lock(slow_mutex_);
    slow_ops_.push_back(slow);
    while (slow_ops_.size() > options_.slow_op_ring) {
      slow_ops_.pop_front();
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.slow_ops;
  }
  char message[52];
  std::snprintf(message, sizeof(message), "slow op %s", OpName(op));
  flight::Record(flight::Severity::kWarn, "dfs_slow", message, elapsed_ns,
                 slow.handle);
}

std::vector<DfsServer::SlowOp> DfsServer::SlowOps() const {
  std::lock_guard<std::mutex> lock(slow_mutex_);
  return {slow_ops_.begin(), slow_ops_.end()};
}

net::Frame DfsServer::Dispatch(Op op, const net::Frame& request,
                               uint64_t except_deleg) {
  if (IsMutating(op) && InGracePeriod()) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.grace_rejects;
    }
    flight::Record(flight::Severity::kWarn, "dfs", "grace reject",
                   static_cast<uint64_t>(op), boot_epoch_);
    return StatusFrame(ErrTimedOut(
        "server in post-boot grace period; retry after it lapses"));
  }
  switch (op) {
    case Op::kLookup:
    case Op::kCreate:
    case Op::kMkdir:
    case Op::kRemove:
    case Op::kReadDir:
      return HandleNameOp(op, request);
    case Op::kOpen:
      return HandleOpen(request);
    case Op::kDelegReturn:
      return HandleDelegReturn(request);
    case Op::kGetStripeMap:
    case Op::kReportStaleReplica:
      return HandleStripeOp(op, request);
    case Op::kGetStats:
      return HandleGetStats(request);
    case Op::kGetHealth:
      return HandleGetHealth(request);
    case Op::kCompound:
      return HandleCompound(request);
    default:
      return HandleFileOp(op, request, except_deleg);
  }
}

net::Frame DfsServer::HandleNameOp(Op op, const net::Frame& request) {
  Credentials creds = Credentials::System();
  ASSIGN_OR_RETURN_FRAME(PathRequest req,
                         PathRequest::Decode(request.payload.span()));
  const std::string& path = req.path;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.remote_lookups;
  }
  ASSIGN_OR_RETURN_FRAME(Name name, Name::Parse(path));
  switch (op) {
    case Op::kLookup: {
      ASSIGN_OR_RETURN_FRAME(sp<Object> object, under_->Resolve(name, creds));
      LookupResponse body;
      if (narrow<Context>(object)) {
        body.is_dir = true;
      } else {
        if (!narrow<File>(object)) {
          return StatusFrame(ErrWrongType("not a file or directory"));
        }
        ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForPath(path));
        body.handle = file->handle;
      }
      return PayloadFrame(body.Encode());
    }
    case Op::kCreate: {
      RETURN_FRAME_IF_ERROR(under_->CreateFile(name, creds).status());
      ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForPath(path));
      CreateResponse body;
      body.handle = file->handle;
      return PayloadFrame(body.Encode());
    }
    case Op::kMkdir:
      return StatusFrame(under_->CreateContext(name, creds).status());
    case Op::kRemove: {
      Status st = under_->Unbind(name, creds);
      if (st.ok()) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = handles_by_path_.find(path);
        if (it != handles_by_path_.end()) {
          files_by_handle_.erase(it->second);
          handles_by_path_.erase(it);
        }
      }
      return StatusFrame(st);
    }
    case Op::kReadDir: {
      ASSIGN_OR_RETURN_FRAME(sp<Object> dir_obj, under_->Resolve(name, creds));
      sp<Context> dir = narrow<Context>(dir_obj);
      if (!dir) {
        return StatusFrame(ErrNotADirectory(path));
      }
      ASSIGN_OR_RETURN_FRAME(std::vector<BindingInfo> entries,
                             dir->List(creds));
      ReadDirResponse body;
      body.entries.reserve(entries.size());
      for (const auto& entry : entries) {
        body.entries.push_back({entry.name, entry.is_context});
      }
      return PayloadFrame(body.Encode());
    }
    default:
      return StatusFrame(ErrNotSupported("unknown name op"));
  }
}

net::Frame DfsServer::HandleOpen(const net::Frame& request) {
  ASSIGN_OR_RETURN_FRAME(
      OpenRequest req, OpenRequest::Decode(request.payload.span()));
  ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForHandle(req.handle));
  OpenResponse body;
  body.handle = file->handle;
  // Delegations need a live lease clock and a callback address; without
  // either the open succeeds plain.
  bool want = req.want_delegation != DelegationKind::kNone &&
              !req.node.empty() && options_.lease_ns != 0;
  std::vector<std::pair<uint64_t, uint64_t>> dirty_times;
  if (want) {
    std::lock_guard<std::mutex> lock(file->mutex);
    PruneDelegations(*file, &dirty_times);
    // Admission (NFSv4 rules): a read delegation coexists with other read
    // delegations but not a write one; a write delegation must be alone.
    // On conflict the grant is simply denied — the opener still got its
    // handle, and the conflicting holder keeps its zero-trip serves.
    bool write_wanted = req.want_delegation == DelegationKind::kWrite;
    bool conflict = false;
    for (const auto& [id, info] : file->delegations) {
      if (write_wanted || info.kind == DelegationKind::kWrite) {
        conflict = true;
        break;
      }
    }
    if (!conflict) {
      uint64_t deleg_id = NextDelegId();
      auto proxy = std::make_shared<DelegationProxy>(this, req.node,
                                                     req.service, deleg_id);
      uint64_t incarnation = file->deleg_engine.AddCache(deleg_id, proxy);
      proxy->set_incarnation(incarnation);
      Result<std::vector<BlockData>> claimed = file->deleg_engine.Acquire(
          deleg_id, Range{0, kPageSize},
          write_wanted ? AccessRights::kReadWrite : AccessRights::kReadOnly);
      if (claimed.ok()) {
        DelegationInfo info;
        info.deleg_id = deleg_id;
        info.kind = req.want_delegation;
        info.node = req.node;
        info.service = req.service;
        info.incarnation = incarnation;
        // The expiry ships to the client as an ABSOLUTE clock value and is
        // never renewed, so both sides agree on the exact instant local
        // serves must stop (the simulation shares one clock; a real system
        // would subtract a safety margin client-side).
        info.expires_at = clock_->Now() + options_.lease_ns;
        info.proxy = proxy;
        file->delegations[deleg_id] = info;
        body.deleg_id = deleg_id;
        body.granted = req.want_delegation;
        body.incarnation = incarnation;
        body.expires_at = info.expires_at;
        {
          std::lock_guard<std::mutex> stats_lock(stats_mutex_);
          ++stats_.delegations_granted;
        }
        flight::Record(flight::Severity::kInfo, "dfs", "delegation granted",
                       deleg_id, file->handle);
      } else {
        file->deleg_engine.RemoveCache(deleg_id);
      }
    }
  }
  for (const auto& [atime, mtime] : dirty_times) {
    Status st = file->under->SetTimes(atime, mtime);
    if (!st.ok()) {
      return StatusFrame(st);
    }
  }
  return PayloadFrame(body.Encode());
}

net::Frame DfsServer::HandleDelegReturn(const net::Frame& request) {
  ASSIGN_OR_RETURN_FRAME(DelegReturnRequest req,
                         DelegReturnRequest::Decode(request.payload.span()));
  ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForHandle(req.handle));
  {
    std::lock_guard<std::mutex> lock(file->mutex);
    auto it = file->delegations.find(req.deleg_id);
    if (it == file->delegations.end() ||
        it->second.incarnation != req.incarnation) {
      // Stale return: the delegation was already recalled, expired, or
      // re-granted under a fresh incarnation. Fence it — the times it
      // carries were already collected by the recall (or are void).
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.deleg_fenced;
      return OkFrame();
    }
    file->deleg_engine.RemoveCache(req.deleg_id);
    file->delegations.erase(it);
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.delegations_returned;
    }
  }
  if (req.has_times) {
    RETURN_FRAME_IF_ERROR(file->under->SetTimes(req.atime_ns, req.mtime_ns));
  }
  return OkFrame();
}

net::Frame DfsServer::HandleGetStats(const net::Frame&) {
  GetStatsResponse body;
  body.snapshot = metrics::Registry::Global().Collect();
  // Fold this server's own counters in under "self/": in a simulated
  // multi-server world every server shares the process registry above, so
  // the self section is what distinguishes one scrape target from another.
  CollectStats([&](const std::string& name, uint64_t value) {
    body.snapshot.values["self/" + name] += value;
  });
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.stats_scrapes;
  }
  return PayloadFrame(body.Encode());
}

net::Frame DfsServer::HandleStripeOp(Op, const net::Frame&) {
  return StatusFrame(ErrInvalidArgument(
      "not a striped metadata server; use the single-server path"));
}

net::Frame DfsServer::HandleGetHealth(const net::Frame&) {
  HealthResponse body;
  body.boot_epoch = boot_epoch_;
  body.uptime_ns = clock_->Now() - boot_time_;
  FillRoleHealth(body);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.health_scrapes;
  }
  for (const sp<ServerFile>& file : AllFiles()) {
    std::lock_guard<std::mutex> lock(file->mutex);
    body.delegations_active += file->delegations.size();
    body.leases_active += file->remote_caches.size();
  }
  body.dedup_entries = dedup_.size();
  return PayloadFrame(body.Encode());
}

net::Frame DfsServer::HandleCompound(const net::Frame& request) {
  ASSIGN_OR_RETURN_FRAME(
      CompoundRequest req, CompoundRequest::Decode(request.payload.span()));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.compounds;
  }
  CompoundResponse out;
  uint64_t current_handle = 0;
  uint64_t current_deleg = 0;
  for (const CompoundRequest::SubOp& sub : req.ops) {
    Op op = static_cast<Op>(sub.op);
    CompoundResponse::SubResult result;
    result.op = sub.op;
    if (op == Op::kCompound || static_cast<uint32_t>(sub.op) >= 100) {
      result.status = static_cast<int32_t>(ErrorCode::kInvalidArgument);
      result.body = Buffer("op not allowed inside a compound");
      out.results.push_back(std::move(result));
      break;
    }
    // Substitute the current-handle register: a zero handle in the leading
    // 8 bytes of a handle-carrying body means "whatever the last
    // kLookup/kCreate/kOpen produced".
    net::Frame sub_request;
    sub_request.type = sub.op;
    sub_request.payload = sub.body;
    if (CarriesLeadingHandle(op) && sub_request.payload.size() >= 8 &&
        current_handle != 0) {
      uint8_t* raw = sub_request.payload.data();
      bool zero = true;
      for (int i = 0; i < 8; ++i) {
        zero = zero && raw[i] == 0;
      }
      if (zero) {
        for (int i = 0; i < 8; ++i) {
          raw[i] = static_cast<uint8_t>(current_handle >> (8 * i));
        }
      }
    }
    net::Frame sub_response = Dispatch(op, sub_request, current_deleg);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.compound_sub_ops;
    }
    Status st = sub_response.ToStatus();
    result.status = static_cast<int32_t>(st.code());
    result.body = st.ok() ? sub_response.payload : Buffer(st.message());
    out.results.push_back(std::move(result));
    if (!st.ok()) {
      break;  // stop at the first failing op; later ops are not attempted
    }
    // Track the current handle through the ops that produce one.
    if (op == Op::kLookup) {
      Result<LookupResponse> looked =
          LookupResponse::Decode(sub_response.payload.span());
      if (looked.ok()) {
        current_handle = looked->is_dir ? 0 : looked->handle;
      }
    } else if (op == Op::kCreate) {
      Result<CreateResponse> created =
          CreateResponse::Decode(sub_response.payload.span());
      if (created.ok()) {
        current_handle = created->handle;
      }
    } else if (op == Op::kOpen) {
      Result<OpenResponse> opened =
          OpenResponse::Decode(sub_response.payload.span());
      if (opened.ok()) {
        current_handle = opened->handle;
        // Later sub-ops run under this open's delegation: without the
        // exemption the program's own getattr/read tail would recall the
        // write delegation it just asked for.
        current_deleg = opened->deleg_id;
      }
    }
  }
  return PayloadFrame(out.Encode());
}

net::Frame DfsServer::HandleFileOp(Op op, const net::Frame& request,
                                   uint64_t except_deleg) {
  switch (op) {
    case Op::kGetAttr: {
      ASSIGN_OR_RETURN_FRAME(
          HandleRequest req, HandleRequest::Decode(request.payload.span()));
      ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForHandle(req.handle));
      // A write-delegation holder may have buffered attr writes — pull
      // them in before serving attributes to anyone else.
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadOnly));
      GetAttrResponse body;
      ASSIGN_OR_RETURN_FRAME(body.attrs, file->under->Stat());
      return PayloadFrame(body.Encode());
    }
    case Op::kSetTimes: {
      ASSIGN_OR_RETURN_FRAME(
          SetTimesRequest req, SetTimesRequest::Decode(request.payload.span()));
      ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForHandle(req.handle));
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadWrite));
      Status st = file->under->SetTimes(req.atime_ns, req.mtime_ns);
      if (st.ok()) {
        std::lock_guard<std::mutex> lock(file->mutex);
        st = BroadcastAttrInvalidate(*file, 0);
      }
      return StatusFrame(st);
    }
    case Op::kSetLength: {
      ASSIGN_OR_RETURN_FRAME(SetLengthRequest req,
                             SetLengthRequest::Decode(request.payload.span()));
      ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForHandle(req.handle));
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadWrite));
      Status st = file->under->SetLength(req.length);
      if (st.ok()) {
        std::lock_guard<std::mutex> lock(file->mutex);
        st = BroadcastAttrInvalidate(*file, 0);
      }
      return StatusFrame(st);
    }
    case Op::kGetLength: {
      ASSIGN_OR_RETURN_FRAME(
          HandleRequest req, HandleRequest::Decode(request.payload.span()));
      ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForHandle(req.handle));
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadOnly));
      GetLengthResponse body;
      ASSIGN_OR_RETURN_FRAME(body.length, file->under->GetLength());
      return PayloadFrame(body.Encode());
    }
    case Op::kRead: {
      ASSIGN_OR_RETURN_FRAME(
          ReadRequest req, ReadRequest::Decode(request.payload.span()));
      ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForHandle(req.handle));
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.remote_reads;
      }
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadOnly));
      RETURN_FRAME_IF_ERROR(EnsureBoundBelow(file));
      Buffer out(req.length);
      {
        std::lock_guard<std::mutex> lock(file->mutex);
        RETURN_FRAME_IF_ERROR(RecallRemote(
            *file, 0, Range{req.offset, req.length}, AccessRights::kReadOnly));
      }
      ASSIGN_OR_RETURN_FRAME(size_t n,
                             file->under->Read(req.offset, out.mutable_span()));
      ReadResponse body;
      body.data = Buffer(out.subspan(0, n));
      return PayloadFrame(body.Encode());
    }
    case Op::kWrite: {
      ASSIGN_OR_RETURN_FRAME(
          WriteRequest req, WriteRequest::Decode(request.payload.span()));
      ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForHandle(req.handle));
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.remote_writes;
      }
      // A wire write conflicts with EVERY delegation, including the
      // writer's own (it chose the wire path, so local attr serves must
      // stop being authoritative).
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadWrite));
      RETURN_FRAME_IF_ERROR(EnsureBoundBelow(file));
      {
        std::lock_guard<std::mutex> lock(file->mutex);
        RETURN_FRAME_IF_ERROR(RecallRemote(*file, 0,
                                           Range{req.offset, req.data.size()},
                                           AccessRights::kReadWrite));
      }
      WriteResponse body;
      ASSIGN_OR_RETURN_FRAME(body.written,
                             file->under->Write(req.offset, req.data.span()));
      {
        std::lock_guard<std::mutex> lock(file->mutex);
        RETURN_FRAME_IF_ERROR(BroadcastAttrInvalidate(*file, 0));
      }
      return PayloadFrame(body.Encode());
    }
    case Op::kSyncFile: {
      ASSIGN_OR_RETURN_FRAME(
          HandleRequest req, HandleRequest::Decode(request.payload.span()));
      ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForHandle(req.handle));
      return StatusFrame(file->under->SyncFile());
    }

    case Op::kBindCache: {
      ASSIGN_OR_RETURN_FRAME(BindCacheRequest req,
                             BindCacheRequest::Decode(request.payload.span()));
      ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForHandle(req.handle));
      RETURN_FRAME_IF_ERROR(EnsureBoundBelow(file));
      std::lock_guard<std::mutex> lock(file->mutex);
      uint64_t cache_id = file->next_cache_id++;
      RemoteCacheInfo info;
      info.node = req.node;
      info.service = req.service;
      info.client_channel = req.client_channel;
      info.is_fs_cache = req.is_fs_cache;
      info.incarnation = file->engine.AddCache(
          cache_id, std::make_shared<RemoteCacheProxy>(
                        this, info.node, info.service, info.client_channel));
      file->remote_caches[cache_id] = info;
      BindCacheResponse body;
      body.cache_id = cache_id;
      return PayloadFrame(body.Encode());
    }
    case Op::kUnbindCache: {
      ASSIGN_OR_RETURN_FRAME(
          UnbindCacheRequest req,
          UnbindCacheRequest::Decode(request.payload.span()));
      ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForHandle(req.handle));
      std::lock_guard<std::mutex> lock(file->mutex);
      file->engine.RemoveCache(req.cache_id);
      file->remote_caches.erase(req.cache_id);
      return OkFrame();
    }
    case Op::kPageIn:
    case Op::kPageInRange: {
      ASSIGN_OR_RETURN_FRAME(
          PageInRequest req, PageInRequest::Decode(request.payload.span()));
      ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForHandle(req.handle));
      bool range_op = op == Op::kPageInRange;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        if (range_op) {
          ++stats_.remote_range_page_ins;
        } else {
          ++stats_.remote_page_ins;
        }
      }
      if (range_op && (req.offset % kPageSize != 0 || req.size == 0)) {
        return StatusFrame(ErrInvalidArgument("malformed page-in-range"));
      }
      AccessRights access = req.write_access ? AccessRights::kReadWrite
                                              : AccessRights::kReadOnly;
      RETURN_FRAME_IF_ERROR(RecallConflicting(file, except_deleg, access));
      RETURN_FRAME_IF_ERROR(EnsureBoundBelow(file));
      std::lock_guard<std::mutex> lock(file->mutex);
      // Fence page-ins from evicted cache ids: the client must re-register
      // (rebind) before it may fault pages again.
      if (!file->engine.HasCache(req.cache_id)) {
        return FenceStale(*file, req.cache_id, /*page_out=*/false);
      }
      // Clamp the range at EOF before touching the lower pager: a striped
      // client computes extents from the *logical* length, so a sparse or
      // short stripe object legitimately sees requests at or past its own
      // end. An empty block list tells it to zero-fill.
      if (range_op) {
        ASSIGN_OR_RETURN_FRAME(Offset length, file->under->GetLength());
        if (req.offset >= length) {
          return PayloadFrame(PageInRangeResponse{}.Encode());
        }
        req.size = std::min<uint64_t>(req.size, PageCeil(length) - req.offset);
      }
      // One acquire covers the whole request, then one page_in against the
      // layer below — for kPageInRange this is the server-side mirror of
      // the client's fault clustering.
      RETURN_FRAME_IF_ERROR(RecallRemote(
          *file, req.cache_id, Range{req.offset, req.size}, access));
      ASSIGN_OR_RETURN_FRAME(sp<PagerObject> pager, file->lower->pager());
      ASSIGN_OR_RETURN_FRAME(Buffer data,
                             pager->PageIn(req.offset, req.size, access));
      if (!range_op) {
        PageInResponse body;
        body.data = std::move(data);
        return PayloadFrame(body.Encode());
      }
      // The lower layer may clamp at EOF; ship whatever whole pages exist
      // as a block list so the client can take the contiguous prefix.
      PageInRangeResponse body;
      Offset usable = PageFloor(data.size());
      if (data.size() % kPageSize != 0) {
        data.resize(PageCeil(data.size()));
        usable = data.size();
      }
      body.blocks.reserve(usable / kPageSize);
      for (Offset off = 0; off < usable; off += kPageSize) {
        body.blocks.push_back(
            BlockData{req.offset + off, Buffer(data.subspan(off, kPageSize))});
      }
      return PayloadFrame(body.Encode());
    }
    case Op::kPageOut:
    case Op::kWriteOut:
    case Op::kSyncPages: {
      ASSIGN_OR_RETURN_FRAME(
          PageOutRequest req, PageOutRequest::Decode(request.payload.span()));
      if (req.data.size() % kPageSize != 0) {
        return StatusFrame(ErrInvalidArgument("malformed page-out"));
      }
      ASSIGN_OR_RETURN_FRAME(sp<ServerFile> file, FileForHandle(req.handle));
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.remote_page_outs;
      }
      RETURN_FRAME_IF_ERROR(
          RecallConflicting(file, except_deleg, AccessRights::kReadWrite));
      RETURN_FRAME_IF_ERROR(EnsureBoundBelow(file));
      std::lock_guard<std::mutex> lock(file->mutex);
      // Fence stale page-outs before they touch the layer below: an evicted
      // holder's writer claim was already handed to someone else, so its
      // late write-back would clobber newer data.
      auto rc = file->remote_caches.find(req.cache_id);
      if (rc == file->remote_caches.end() ||
          !file->engine.HasCache(req.cache_id)) {
        return FenceStale(*file, req.cache_id, /*page_out=*/true);
      }
      ASSIGN_OR_RETURN_FRAME(sp<PagerObject> pager, file->lower->pager());
      RETURN_FRAME_IF_ERROR(pager->Sync(req.offset, req.data.span()));
      if (op == Op::kPageOut) {
        file->engine.ReleaseDropped(req.cache_id,
                                    Range{req.offset, req.data.size()},
                                    rc->second.incarnation);
      } else if (op == Op::kWriteOut) {
        file->engine.ReleaseDowngraded(req.cache_id,
                                       Range{req.offset, req.data.size()},
                                       rc->second.incarnation);
      }
      return OkFrame();
    }
    default:
      return StatusFrame(ErrNotSupported("unknown file op"));
  }
}

// --- local (Figure 7) surface ---

Result<sp<File>> DfsServer::WrapFile(const Name&, const sp<File>& under) {
  return sp<File>(std::make_shared<DfsLocalFile>(
      domain(), std::dynamic_pointer_cast<DfsServer>(shared_from_this()),
      under));
}

Result<sp<Object>> DfsServer::UnwrapForBind(sp<Object> object) {
  if (sp<DfsLocalFile> wrapped = narrow<DfsLocalFile>(object)) {
    return sp<Object>(wrapped->under());
  }
  return object;
}

void DfsServer::CollectStats(const metrics::StatsEmitter& emit) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  emit("remote_lookups", stats_.remote_lookups);
  emit("remote_page_ins", stats_.remote_page_ins);
  emit("remote_range_page_ins", stats_.remote_range_page_ins);
  emit("remote_page_outs", stats_.remote_page_outs);
  emit("remote_reads", stats_.remote_reads);
  emit("remote_writes", stats_.remote_writes);
  emit("callbacks_sent", stats_.callbacks_sent);
  emit("lower_flushes", stats_.lower_flushes);
  emit("dedup_hits", stats_.dedup_hits);
  emit("stale_fenced", stats_.stale_fenced);
  emit("compounds", stats_.compounds);
  emit("compound_sub_ops", stats_.compound_sub_ops);
  emit("delegations_granted", stats_.delegations_granted);
  emit("delegations_recalled", stats_.delegations_recalled);
  emit("delegations_returned", stats_.delegations_returned);
  emit("delegations_expired", stats_.delegations_expired);
  emit("deleg_fenced", stats_.deleg_fenced);
  emit("grace_rejects", stats_.grace_rejects);
  emit("slow_ops", stats_.slow_ops);
  emit("health_scrapes", stats_.health_scrapes);
  emit("stats_scrapes", stats_.stats_scrapes);
}

bool DfsServer::CheckCoherencyInvariants() {
  for (const sp<ServerFile>& file : AllFiles()) {
    std::lock_guard<std::mutex> lock(file->mutex);
    if (!file->engine.CheckInvariants() ||
        !file->deleg_engine.CheckInvariants()) {
      return false;
    }
  }
  return true;
}

CoherencyStats DfsServer::AggregateCoherencyStats() {
  CoherencyStats total;
  for (const sp<ServerFile>& file : AllFiles()) {
    std::lock_guard<std::mutex> lock(file->mutex);
    CoherencyStats s = file->engine.stats();
    total.flush_back_calls += s.flush_back_calls;
    total.deny_write_calls += s.deny_write_calls;
    total.blocks_recovered += s.blocks_recovered;
    total.callback_failures += s.callback_failures;
    total.evictions += s.evictions;
    total.lease_expiries += s.lease_expiries;
    total.lost_dirty_blocks += s.lost_dirty_blocks;
    total.fenced_releases += s.fenced_releases;
  }
  return total;
}

void DfsServer::ResetStats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_ = Stats{};
}

}  // namespace springfs::dfs
