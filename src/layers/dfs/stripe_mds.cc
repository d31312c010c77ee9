#include "src/layers/dfs/stripe_mds.h"

#include <algorithm>

#include "src/obs/flight_recorder.h"

namespace springfs::dfs {

Buffer StripeSidecar::Encode() const {
  WireWriter w;
  w.U64(state.version);
  w.U32(static_cast<uint32_t>(state.stale.size()));
  for (bool flag : state.stale) {
    w.U32(flag ? 1 : 0);
  }
  w.Str(path);
  return w.Take();
}

Result<StripeSidecar> StripeSidecar::Decode(ByteSpan bytes) {
  WireReader r(bytes);
  StripeSidecar out;
  ASSIGN_OR_RETURN(out.state.version, r.U64());
  ASSIGN_OR_RETURN(uint32_t count, r.U32());
  for (uint32_t t = 0; t < count; ++t) {
    ASSIGN_OR_RETURN(uint32_t flag, r.U32());
    out.state.stale.push_back(flag != 0);
  }
  ASSIGN_OR_RETURN(out.path, r.Str());
  return out;
}

std::string StripeSidecar::NameFor(const std::string& path) {
  return "." + StripeLayout::ObjectName(path) + "-state";
}

Result<sp<StripeMds>> StripeMds::Create(const sp<net::Node>& node,
                                        net::Network* network,
                                        const std::string& service,
                                        sp<StackableFs> under, Clock* clock,
                                        const StripeMdsConfig& config,
                                        const DfsServerOptions& options) {
  if (config.stripe_targets.empty()) {
    return ErrInvalidArgument("a metadata server needs stripe targets");
  }
  if (config.stripe_size == 0 || config.stripe_size % kPageSize != 0) {
    return ErrInvalidArgument("stripe_size must be a non-zero page multiple");
  }
  sp<StripeMds> mds(new StripeMds(node, network, service, std::move(under),
                                  clock, options, config));
  mds->Listen();
  return mds;
}

StripeMds::StripeMds(const sp<net::Node>& node, net::Network* network,
                     std::string service, sp<StackableFs> under, Clock* clock,
                     const DfsServerOptions& options,
                     const StripeMdsConfig& config)
    : DfsServer(node, network, std::move(service), std::move(under), clock,
                options),
      targets_(config.stripe_targets),
      layout_(config.stripe_size, config.stripe_targets.size(),
              config.stripe_replicas) {}

net::Frame StripeMds::HandleStripeOp(Op op, const net::Frame& request) {
  return op == Op::kGetStripeMap ? HandleGetStripeMap(request)
                                 : HandleReportStale(request);
}

// --- staleness state and its sidecar ---------------------------------------

StripeState StripeMds::LoadStripeState(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(stripe_mutex_);
    auto it = stripe_states_.find(path);
    if (it != stripe_states_.end()) {
      return it->second;
    }
  }
  // Cold (this boot never touched the file): re-derive from the sidecar,
  // if a previous incumbent left one. This is what keeps map versions
  // monotonic — and stale marks durable — across MDS restarts.
  Result<StripeSidecar> sidecar = ReadSidecar(StripeSidecar::NameFor(path));
  bool adopted = sidecar.ok() && sidecar->path == path;
  return CacheStripeState(path, adopted ? sidecar->state : StripeState{});
}

StripeState StripeMds::CacheStripeState(const std::string& path,
                                        StripeState state) {
  state.stale.resize(layout_.width(), false);
  std::lock_guard<std::mutex> lock(stripe_mutex_);
  return stripe_states_.emplace(path, std::move(state)).first->second;
}

void StripeMds::StoreStripeState(const std::string& path,
                                 const StripeState& state) {
  {
    std::lock_guard<std::mutex> lock(stripe_mutex_);
    stripe_states_[path] = state;
  }
  if (!WriteSidecar(path, state).ok()) {
    flight::Record(flight::Severity::kWarn, "dfs_stripe",
                   "stripe-state sidecar unwritable", state.version);
  }
}

Status StripeMds::WriteSidecar(const std::string& path,
                               const StripeState& state) {
  ASSIGN_OR_RETURN(Name name, Name::Parse(StripeSidecar::NameFor(path)));
  Result<sp<File>> sidecar =
      ResolveAs<File>(under_, name.ToString(), Credentials::System());
  if (!sidecar.ok()) {
    sidecar = under_->CreateFile(name, Credentials::System());
  }
  RETURN_IF_ERROR(sidecar.status());
  Buffer wire = StripeSidecar{path, state}.Encode();
  ASSIGN_OR_RETURN(size_t written, (*sidecar)->Write(0, wire.span()));
  if (written != wire.size()) {
    return ErrIoError("short stripe-state sidecar write");
  }
  return (*sidecar)->SetLength(wire.size());
}

Result<StripeSidecar> StripeMds::ReadSidecar(const std::string& name) {
  ASSIGN_OR_RETURN(sp<File> sidecar,
                   ResolveAs<File>(under_, name, Credentials::System()));
  ASSIGN_OR_RETURN(Offset length, sidecar->GetLength());
  Buffer raw;
  raw.resize(length);
  ASSIGN_OR_RETURN(size_t got, sidecar->Read(0, raw.mutable_span()));
  return StripeSidecar::Decode(raw.span().first(got));
}

void StripeMds::LoadAllSidecarStates() {
  Result<std::vector<BindingInfo>> entries =
      under_->List(Credentials::System());
  if (!entries.ok()) {
    return;
  }
  // Every sidecar name has NameFor's fixed length, and (as in
  // LoadStripeState) a record is adopted only when its own path names it
  // back, so other files and records with a corrupted path are skipped.
  const size_t name_size = StripeSidecar::NameFor("").size();
  for (const BindingInfo& entry : *entries) {
    if (entry.is_context || entry.name.size() != name_size) {
      continue;
    }
    Result<StripeSidecar> sidecar = ReadSidecar(entry.name);
    if (sidecar.ok() && StripeSidecar::NameFor(sidecar->path) == entry.name) {
      (void)CacheStripeState(sidecar->path, sidecar->state);
    }
  }
}

bool StripeMds::MarkReplicaStale(const std::string& path, size_t t) {
  StripeState state = LoadStripeState(path);
  if (t >= state.stale.size() || state.stale[t]) {
    return false;
  }
  size_t fresh = std::count(state.stale.begin(), state.stale.end(), false);
  if (fresh <= 1) {
    // Refusing to mark the last fresh target: a file cannot be served from
    // zero fresh replicas, so the final copy stays authoritative even if a
    // client could not reach it.
    flight::Record(flight::Severity::kWarn, "dfs_stripe",
                   "refused to mark last fresh target", t, state.version);
    return false;
  }
  state.stale[t] = true;
  ++state.version;
  StoreStripeState(path, state);
  ++replicas_marked_stale_;
  flight::Record(flight::Severity::kWarn, "dfs_stripe",
                 "replica target marked stale", t, state.version);
  return true;
}

// --- the stripe map --------------------------------------------------------

// Ensure the stripe object exists on one data server and return its
// current handle. Deliberately uncached: handles are only valid for a data
// server's boot epoch, so re-resolving on every map request means a client
// that refetches the map after a data-server restart gets working handles
// with no extra re-lookup protocol. The lookup -> create -> re-lookup
// ladder is convergent, which is what lets kGetStripeMap stay idempotent
// even though it may create objects.
Result<uint64_t> StripeMds::EnsureStripeObject(
    const StripeMdsConfig::Target& target, const std::string& name) {
  PathRequest object;
  object.path = name;
  net::Frame lookup;
  lookup.type = static_cast<uint32_t>(Op::kLookup);
  lookup.payload = object.Encode();
  ASSIGN_OR_RETURN(net::Frame reply,
                   CallPeer(target.node, target.service, lookup));
  Status st = reply.ToStatus();
  if (st.code() == ErrorCode::kNotFound) {
    net::Frame create;
    create.type = static_cast<uint32_t>(Op::kCreate);
    create.payload = object.Encode();
    ASSIGN_OR_RETURN(net::Frame created,
                     CallPeer(target.node, target.service, create));
    Status create_st = created.ToStatus();
    if (create_st.ok()) {
      ASSIGN_OR_RETURN(CreateResponse made,
                       CreateResponse::Decode(created.payload.span()));
      ++objects_created_;
      return made.handle;
    }
    if (create_st.code() != ErrorCode::kAlreadyExists) {
      return create_st;
    }
    // Lost-response race: our earlier create landed but its reply did not.
    // Fall through to the re-lookup below.
    ASSIGN_OR_RETURN(reply, CallPeer(target.node, target.service, lookup));
    st = reply.ToStatus();
  }
  RETURN_IF_ERROR(st);
  ASSIGN_OR_RETURN(LookupResponse found,
                   LookupResponse::Decode(reply.payload.span()));
  return found.handle;
}

Result<StripeMapResponse> StripeMds::BuildStripeMap(
    const sp<ServerFile>& file) {
  uint32_t replicas = layout_.replicas();
  StripeMapResponse body;
  body.stripe_size = layout_.stripe_size();
  body.replicas = replicas;
  body.object_name = StripeLayout::ObjectName(file->path);
  ASSIGN_OR_RETURN(Offset length, file->under->GetLength());
  body.length = length;

  bool marked = false;
  StripeState state = LoadStripeState(file->path);
  for (size_t t = 0; t < targets_.size(); ++t) {
    StripeMapResponse::Target out;
    out.node = targets_[t].node;
    out.service = targets_[t].service;
    out.stale = state.stale[t];
    // Stale targets still get an ensure attempt: once the server is back
    // up the map carries real handles for the rebuild path, while the
    // stale flag keeps clients away until the rebuild clears it.
    Status ensure = Status::Ok();
    for (size_t lane = 0; lane < replicas; ++lane) {
      Result<uint64_t> handle = EnsureStripeObject(
          targets_[t], StripeLayout::LaneObjectName(body.object_name, lane));
      if (!handle.ok()) {
        ensure = handle.status();
        break;
      }
      out.lane_handles.push_back(*handle);
    }
    if (!ensure.ok()) {
      if (replicas == 1) {
        // Unreplicated cluster: there is no peer to degrade to, so the map
        // request fails exactly as it did before replication existed.
        return ensure;
      }
      out.lane_handles.assign(replicas, 0);
      if (!out.stale && MarkReplicaStale(file->path, t)) {
        marked = true;
        out.stale = true;
      }
    }
    body.targets.push_back(std::move(out));
  }
  if (marked) {
    // Re-read so the served version reflects the marks applied above.
    state = LoadStripeState(file->path);
    for (size_t t = 0; t < body.targets.size(); ++t) {
      body.targets[t].stale = state.stale[t];
    }
  }
  body.map_version = state.version;
  return body;
}

net::Frame StripeMds::HandleGetStripeMap(const net::Frame& request) {
  Result<HandleRequest> req = HandleRequest::Decode(request.payload.span());
  if (!req.ok()) {
    return StatusFrame(req.status());
  }
  Result<sp<ServerFile>> file = FileForHandle(req->handle);
  if (!file.ok()) {
    return StatusFrame(file.status());
  }
  Result<StripeMapResponse> body = BuildStripeMap(*file);
  if (!body.ok()) {
    return StatusFrame(body.status());
  }
  ++maps_served_;
  net::Frame response;
  response.payload = body->Encode();
  return response;
}

net::Frame StripeMds::HandleReportStale(const net::Frame& request) {
  Result<ReportStaleRequest> req =
      ReportStaleRequest::Decode(request.payload.span());
  if (!req.ok()) {
    return StatusFrame(req.status());
  }
  Result<sp<ServerFile>> file = FileForHandle(req->handle);
  if (!file.ok()) {
    return StatusFrame(file.status());
  }
  const std::string& path = (*file)->path;
  ++stale_reports_;
  // Version-fenced: the mark is honored only when the reporter's map is at
  // least as new as this server's state. A report stamped with an older
  // version raced a rebuild that already cleared the mark (and bumped the
  // version past the reporter's) — re-marking would wrongly evict the
  // just-rebuilt replica. The stale reporter instead gets the fresh map
  // below and re-plans its writes against it, reaching the revived target
  // directly. (MarkReplicaStale still refuses to strand the last fresh
  // copy.)
  if (req->target < targets_.size() && layout_.replicas() > 1 &&
      req->map_version >= LoadStripeState(path).version) {
    (void)MarkReplicaStale(path, static_cast<size_t>(req->target));
  }
  Result<StripeMapResponse> body = BuildStripeMap(*file);
  if (!body.ok()) {
    return StatusFrame(body.status());
  }
  net::Frame response;
  response.payload = body->Encode();
  return response;
}

// --- telemetry -------------------------------------------------------------

void StripeMds::FillRoleHealth(HealthResponse& body) {
  body.role = HealthResponse::Role::kMetadata;
  body.stripe_size = layout_.stripe_size();
  body.stripe_width = static_cast<uint32_t>(layout_.width());
  body.stripe_replicas = layout_.replicas();
  body.rebuilds_completed = rebuilds_;
  // Re-derive sidecar staleness first, so a cold incumbent (fresh MDS
  // after a failover, no client traffic yet) reports truthfully. Local
  // store reads only — no wire calls under any lock.
  LoadAllSidecarStates();
  std::lock_guard<std::mutex> lock(stripe_mutex_);
  for (const auto& [path, state] : stripe_states_) {
    HealthResponse::FileHealth file;
    file.path = path;
    file.map_version = state.version;
    for (size_t t = 0; t < state.stale.size(); ++t) {
      if (state.stale[t]) {
        file.stale_targets.push_back(static_cast<uint32_t>(t));
      }
    }
    body.files.push_back(std::move(file));
  }
}

void StripeMds::CollectStats(const metrics::StatsEmitter& emit) const {
  DfsServer::CollectStats(emit);
  emit("stripe_maps_served", maps_served_);
  emit("stripe_objects_created", objects_created_);
  emit("stripe_replicas_marked_stale", replicas_marked_stale_);
  emit("stripe_stale_reports", stale_reports_);
  emit("stripe_rebuilds", rebuilds_);
  emit("stripe_rebuild_bytes", rebuild_bytes_);
}

// --- rebuild ---------------------------------------------------------------

Result<size_t> StripeMds::RunRebuildPass() {
  LoadAllSidecarStates();
  // Snapshot the paths with stale targets.
  std::vector<std::string> paths;
  {
    std::lock_guard<std::mutex> lock(stripe_mutex_);
    for (const auto& [path, state] : stripe_states_) {
      if (std::find(state.stale.begin(), state.stale.end(), true) !=
          state.stale.end()) {
        paths.push_back(path);
      }
    }
  }
  size_t rebuilt = 0;
  for (const std::string& path : paths) {
    StripeState state = LoadStripeState(path);
    std::string object_name = StripeLayout::ObjectName(path);
    for (size_t t = 0; t < state.stale.size(); ++t) {
      if (!state.stale[t]) {
        continue;
      }
      Status copied = RebuildTarget(object_name, t, state);
      if (!copied.ok()) {
        flight::Record(flight::Severity::kWarn, "dfs_stripe",
                       "rebuild attempt failed", t, state.version);
        continue;  // target still down or no fresh source; next pass
      }
      state.stale[t] = false;
      ++state.version;
      StoreStripeState(path, state);
      ++rebuilt;
      ++rebuilds_;
      flight::Record(flight::Severity::kInfo, "dfs_stripe",
                     "stale target rebuilt", t, state.version);
    }
  }
  return rebuilt;
}

Status StripeMds::RebuildTarget(const std::string& object_name, size_t t,
                                const StripeState& state) {
  const StripeMdsConfig::Target& dest = targets_[t];

  // Typed sync call helper against a data server.
  auto call = [&](const StripeMdsConfig::Target& target, Op op,
                  Buffer body) -> Result<net::Frame> {
    net::Frame frame;
    frame.type = static_cast<uint32_t>(op);
    frame.payload = std::move(body);
    ASSIGN_OR_RETURN(net::Frame reply,
                     CallPeer(target.node, target.service, frame));
    RETURN_IF_ERROR(reply.ToStatus());
    return reply;
  };

  for (size_t lane = 0; lane < layout_.replicas(); ++lane) {
    // The lane-`lane` object on target t mirrors the lane-0 object of its
    // primary; so does every other lane r of that primary, on
    // ReplicaTarget(primary, r), at identical local offsets. The copy is a
    // plain whole-object transfer from any fresh one of them.
    size_t primary = layout_.PrimaryOf(t, lane);
    const StripeMdsConfig::Target* src_target = nullptr;
    size_t src_lane = 0;
    for (size_t r = 0; r < layout_.replicas(); ++r) {
      size_t candidate = layout_.ReplicaTarget(primary, r);
      if (candidate == t || state.stale[candidate]) {
        continue;
      }
      src_target = &targets_[candidate];
      src_lane = r;
      break;
    }
    if (!src_target) {
      return ErrTimedOut("no fresh replica to rebuild from");
    }
    std::string src_name = StripeLayout::LaneObjectName(object_name, src_lane);
    std::string dst_name = StripeLayout::LaneObjectName(object_name, lane);
    ASSIGN_OR_RETURN(uint64_t src_handle,
                     EnsureStripeObject(*src_target, src_name));
    ASSIGN_OR_RETURN(uint64_t dst_handle, EnsureStripeObject(dest, dst_name));

    HandleRequest len_req;
    len_req.handle = src_handle;
    ASSIGN_OR_RETURN(net::Frame len_reply,
                     call(*src_target, Op::kGetLength, len_req.Encode()));
    ASSIGN_OR_RETURN(GetLengthResponse src_len,
                     GetLengthResponse::Decode(len_reply.payload.span()));

    constexpr uint64_t kChunk = 16 * kPageSize;
    for (uint64_t off = 0; off < src_len.length; off += kChunk) {
      ReadRequest read;
      read.handle = src_handle;
      read.offset = off;
      read.length = std::min(kChunk, src_len.length - off);
      ASSIGN_OR_RETURN(net::Frame read_reply,
                       call(*src_target, Op::kRead, read.Encode()));
      ASSIGN_OR_RETURN(ReadResponse data,
                       ReadResponse::Decode(read_reply.payload.span()));
      WriteRequest write;
      write.handle = dst_handle;
      write.offset = off;
      write.data = std::move(data.data);
      size_t written = write.data.size();
      RETURN_IF_ERROR(call(dest, Op::kWrite, write.Encode()).status());
      rebuild_bytes_ += written;
    }
    // Truncate a dest that outlived the source (writes it absorbed before
    // dying that were since truncated away).
    SetLengthRequest trunc;
    trunc.handle = dst_handle;
    trunc.length = src_len.length;
    RETURN_IF_ERROR(call(dest, Op::kSetLength, trunc.Encode()).status());
  }
  return Status::Ok();
}

}  // namespace springfs::dfs
