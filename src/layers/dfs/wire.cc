#include "src/layers/dfs/wire.h"

#include "src/layers/dfs/protocol.h"

namespace springfs::dfs {
namespace {

// Element counts in a body are attacker/corruption-controlled; each decoded
// element consumes at least a few bytes, so any count larger than the wire
// size is corrupt — reject it before reserving.
Status CheckCount(uint32_t n, ByteSpan wire) {
  if (n > wire.size()) {
    return ErrCorrupted("element count exceeds body size");
  }
  return Status::Ok();
}

}  // namespace

void WireWriter::U32(uint32_t v) {
  uint8_t raw[4];
  for (int i = 0; i < 4; ++i) {
    raw[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  out_.append(ByteSpan(raw, 4));
}

void WireWriter::U64(uint64_t v) {
  uint8_t raw[8];
  for (int i = 0; i < 8; ++i) {
    raw[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  out_.append(ByteSpan(raw, 8));
}

void WireWriter::I32(int32_t v) { U32(static_cast<uint32_t>(v)); }

void WireWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(ByteSpan(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

void WireWriter::Bytes(ByteSpan data) {
  U32(static_cast<uint32_t>(data.size()));
  out_.append(data);
}

Result<uint32_t> WireReader::U32() {
  if (at_ + 4 > wire_.size()) {
    return ErrCorrupted("wire body truncated (u32)");
  }
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | wire_[at_ + i];
  }
  at_ += 4;
  return v;
}

Result<uint64_t> WireReader::U64() {
  if (at_ + 8 > wire_.size()) {
    return ErrCorrupted("wire body truncated (u64)");
  }
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | wire_[at_ + i];
  }
  at_ += 8;
  return v;
}

Result<int32_t> WireReader::I32() {
  ASSIGN_OR_RETURN(uint32_t v, U32());
  return static_cast<int32_t>(v);
}

Result<std::string> WireReader::Str() {
  ASSIGN_OR_RETURN(uint32_t n, U32());
  if (at_ + n > wire_.size()) {
    return ErrCorrupted("wire body truncated (string)");
  }
  std::string s(reinterpret_cast<const char*>(wire_.data() + at_), n);
  at_ += n;
  return s;
}

Result<Buffer> WireReader::Bytes() {
  ASSIGN_OR_RETURN(uint32_t n, U32());
  if (at_ + n > wire_.size()) {
    return ErrCorrupted("wire body truncated (bytes)");
  }
  Buffer out(wire_.subspan(at_, n));
  at_ += n;
  return out;
}

// --- name-space ops ---

Buffer PathRequest::Encode() const {
  WireWriter w;
  w.Str(path);
  return w.Take();
}

Result<PathRequest> PathRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  PathRequest out;
  ASSIGN_OR_RETURN(out.path, r.Str());
  return out;
}

Buffer LookupResponse::Encode() const {
  WireWriter w;
  w.U64(handle);
  w.U32(is_dir ? 1 : 0);
  return w.Take();
}

Result<LookupResponse> LookupResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  LookupResponse out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  ASSIGN_OR_RETURN(uint32_t dir, r.U32());
  out.is_dir = dir != 0;
  return out;
}

Buffer CreateResponse::Encode() const {
  WireWriter w;
  w.U64(handle);
  return w.Take();
}

Result<CreateResponse> CreateResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  CreateResponse out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  return out;
}

Buffer ReadDirResponse::Encode() const {
  WireWriter w;
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const Entry& entry : entries) {
    w.Str(entry.name);
    w.U32(entry.is_dir ? 1 : 0);
  }
  return w.Take();
}

Result<ReadDirResponse> ReadDirResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  ReadDirResponse out;
  ASSIGN_OR_RETURN(uint32_t n, r.U32());
  RETURN_IF_ERROR(CheckCount(n, wire));
  out.entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Entry entry;
    ASSIGN_OR_RETURN(entry.name, r.Str());
    ASSIGN_OR_RETURN(uint32_t dir, r.U32());
    entry.is_dir = dir != 0;
    out.entries.push_back(std::move(entry));
  }
  return out;
}

// --- attribute ops ---

Buffer HandleRequest::Encode() const {
  WireWriter w;
  w.U64(handle);
  return w.Take();
}

Result<HandleRequest> HandleRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  HandleRequest out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  return out;
}

Buffer GetAttrResponse::Encode() const {
  WireWriter w;
  w.Bytes(SerializeAttrs(attrs).span());
  return w.Take();
}

Result<GetAttrResponse> GetAttrResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  ASSIGN_OR_RETURN(Buffer raw, r.Bytes());
  GetAttrResponse out;
  ASSIGN_OR_RETURN(out.attrs, DeserializeAttrs(raw.span()));
  return out;
}

Buffer SetTimesRequest::Encode() const {
  WireWriter w;
  w.U64(handle);
  w.U64(atime_ns);
  w.U64(mtime_ns);
  return w.Take();
}

Result<SetTimesRequest> SetTimesRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  SetTimesRequest out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  ASSIGN_OR_RETURN(out.atime_ns, r.U64());
  ASSIGN_OR_RETURN(out.mtime_ns, r.U64());
  return out;
}

Buffer SetLengthRequest::Encode() const {
  WireWriter w;
  w.U64(handle);
  w.U64(length);
  return w.Take();
}

Result<SetLengthRequest> SetLengthRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  SetLengthRequest out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  ASSIGN_OR_RETURN(out.length, r.U64());
  return out;
}

Buffer GetLengthResponse::Encode() const {
  WireWriter w;
  w.U64(length);
  return w.Take();
}

Result<GetLengthResponse> GetLengthResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  GetLengthResponse out;
  ASSIGN_OR_RETURN(out.length, r.U64());
  return out;
}

// --- whole-file data ops ---

Buffer ReadRequest::Encode() const {
  WireWriter w;
  w.U64(handle);
  w.U64(offset);
  w.U64(length);
  return w.Take();
}

Result<ReadRequest> ReadRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  ReadRequest out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  ASSIGN_OR_RETURN(out.offset, r.U64());
  ASSIGN_OR_RETURN(out.length, r.U64());
  return out;
}

Buffer ReadResponse::Encode() const {
  WireWriter w;
  w.Bytes(data.span());
  return w.Take();
}

Result<ReadResponse> ReadResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  ReadResponse out;
  ASSIGN_OR_RETURN(out.data, r.Bytes());
  return out;
}

Buffer WriteRequest::Encode() const {
  WireWriter w;
  w.U64(handle);
  w.U64(offset);
  w.Bytes(data.span());
  return w.Take();
}

Result<WriteRequest> WriteRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  WriteRequest out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  ASSIGN_OR_RETURN(out.offset, r.U64());
  ASSIGN_OR_RETURN(out.data, r.Bytes());
  return out;
}

Buffer WriteResponse::Encode() const {
  WireWriter w;
  w.U64(written);
  return w.Take();
}

Result<WriteResponse> WriteResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  WriteResponse out;
  ASSIGN_OR_RETURN(out.written, r.U64());
  return out;
}

// --- pager-cache channel ---

Buffer BindCacheRequest::Encode() const {
  WireWriter w;
  w.U64(handle);
  w.U64(client_channel);
  w.U32(is_fs_cache ? 1 : 0);
  w.Str(node);
  w.Str(service);
  return w.Take();
}

Result<BindCacheRequest> BindCacheRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  BindCacheRequest out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  ASSIGN_OR_RETURN(out.client_channel, r.U64());
  ASSIGN_OR_RETURN(uint32_t fs, r.U32());
  out.is_fs_cache = fs != 0;
  ASSIGN_OR_RETURN(out.node, r.Str());
  ASSIGN_OR_RETURN(out.service, r.Str());
  return out;
}

Buffer BindCacheResponse::Encode() const {
  WireWriter w;
  w.U64(cache_id);
  return w.Take();
}

Result<BindCacheResponse> BindCacheResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  BindCacheResponse out;
  ASSIGN_OR_RETURN(out.cache_id, r.U64());
  return out;
}

Buffer UnbindCacheRequest::Encode() const {
  WireWriter w;
  w.U64(handle);
  w.U64(cache_id);
  return w.Take();
}

Result<UnbindCacheRequest> UnbindCacheRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  UnbindCacheRequest out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  ASSIGN_OR_RETURN(out.cache_id, r.U64());
  return out;
}

Buffer PageInRequest::Encode() const {
  WireWriter w;
  w.U64(handle);
  w.U64(cache_id);
  w.U64(offset);
  w.U64(size);
  w.U32(write_access ? 1 : 0);
  return w.Take();
}

Result<PageInRequest> PageInRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  PageInRequest out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  ASSIGN_OR_RETURN(out.cache_id, r.U64());
  ASSIGN_OR_RETURN(out.offset, r.U64());
  ASSIGN_OR_RETURN(out.size, r.U64());
  ASSIGN_OR_RETURN(uint32_t rw, r.U32());
  out.write_access = rw != 0;
  return out;
}

Buffer PageInResponse::Encode() const {
  WireWriter w;
  w.Bytes(data.span());
  return w.Take();
}

Result<PageInResponse> PageInResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  PageInResponse out;
  ASSIGN_OR_RETURN(out.data, r.Bytes());
  return out;
}

Buffer PageInRangeResponse::Encode() const {
  WireWriter w;
  w.Bytes(SerializeBlocks(blocks).span());
  return w.Take();
}

Result<PageInRangeResponse> PageInRangeResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  ASSIGN_OR_RETURN(Buffer raw, r.Bytes());
  PageInRangeResponse out;
  ASSIGN_OR_RETURN(out.blocks, DeserializeBlocks(raw.span()));
  return out;
}

Buffer PageOutRequest::Encode() const {
  WireWriter w;
  w.U64(handle);
  w.U64(cache_id);
  w.U64(offset);
  w.Bytes(data.span());
  return w.Take();
}

Result<PageOutRequest> PageOutRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  PageOutRequest out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  ASSIGN_OR_RETURN(out.cache_id, r.U64());
  ASSIGN_OR_RETURN(out.offset, r.U64());
  ASSIGN_OR_RETURN(out.data, r.Bytes());
  return out;
}

// --- open + delegations ---

Buffer OpenRequest::Encode() const {
  WireWriter w;
  w.U64(handle);
  w.U32(static_cast<uint32_t>(want_delegation));
  w.Str(node);
  w.Str(service);
  return w.Take();
}

Result<OpenRequest> OpenRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  OpenRequest out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  ASSIGN_OR_RETURN(uint32_t want, r.U32());
  out.want_delegation = static_cast<DelegationKind>(want);
  ASSIGN_OR_RETURN(out.node, r.Str());
  ASSIGN_OR_RETURN(out.service, r.Str());
  return out;
}

Buffer OpenResponse::Encode() const {
  WireWriter w;
  w.U64(handle);
  w.U64(deleg_id);
  w.U32(static_cast<uint32_t>(granted));
  w.U64(incarnation);
  w.U64(expires_at);
  return w.Take();
}

Result<OpenResponse> OpenResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  OpenResponse out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  ASSIGN_OR_RETURN(out.deleg_id, r.U64());
  ASSIGN_OR_RETURN(uint32_t granted, r.U32());
  out.granted = static_cast<DelegationKind>(granted);
  ASSIGN_OR_RETURN(out.incarnation, r.U64());
  ASSIGN_OR_RETURN(out.expires_at, r.U64());
  return out;
}

Buffer DelegReturnRequest::Encode() const {
  WireWriter w;
  w.U64(handle);
  w.U64(deleg_id);
  w.U64(incarnation);
  w.U32(has_times ? 1 : 0);
  w.U64(atime_ns);
  w.U64(mtime_ns);
  return w.Take();
}

Result<DelegReturnRequest> DelegReturnRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  DelegReturnRequest out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  ASSIGN_OR_RETURN(out.deleg_id, r.U64());
  ASSIGN_OR_RETURN(out.incarnation, r.U64());
  ASSIGN_OR_RETURN(uint32_t has, r.U32());
  out.has_times = has != 0;
  ASSIGN_OR_RETURN(out.atime_ns, r.U64());
  ASSIGN_OR_RETURN(out.mtime_ns, r.U64());
  return out;
}

// --- striping ---

Buffer StripeMapResponse::Encode() const {
  WireWriter w;
  w.U64(stripe_size);
  w.U64(length);
  w.U64(map_version);
  w.U32(replicas);
  w.Str(object_name);
  w.U32(static_cast<uint32_t>(targets.size()));
  for (const Target& target : targets) {
    w.Str(target.node);
    w.Str(target.service);
    w.U32(target.stale ? 1 : 0);
    w.U32(static_cast<uint32_t>(target.lane_handles.size()));
    for (uint64_t handle : target.lane_handles) {
      w.U64(handle);
    }
  }
  return w.Take();
}

Result<StripeMapResponse> StripeMapResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  StripeMapResponse out;
  ASSIGN_OR_RETURN(out.stripe_size, r.U64());
  ASSIGN_OR_RETURN(out.length, r.U64());
  ASSIGN_OR_RETURN(out.map_version, r.U64());
  ASSIGN_OR_RETURN(out.replicas, r.U32());
  ASSIGN_OR_RETURN(out.object_name, r.Str());
  ASSIGN_OR_RETURN(uint32_t n, r.U32());
  RETURN_IF_ERROR(CheckCount(n, wire));
  out.targets.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Target target;
    ASSIGN_OR_RETURN(target.node, r.Str());
    ASSIGN_OR_RETURN(target.service, r.Str());
    ASSIGN_OR_RETURN(uint32_t stale, r.U32());
    target.stale = stale != 0;
    ASSIGN_OR_RETURN(uint32_t lanes, r.U32());
    RETURN_IF_ERROR(CheckCount(lanes, wire));
    target.lane_handles.reserve(lanes);
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      ASSIGN_OR_RETURN(uint64_t handle, r.U64());
      target.lane_handles.push_back(handle);
    }
    out.targets.push_back(std::move(target));
  }
  return out;
}

Buffer ReportStaleRequest::Encode() const {
  WireWriter w;
  w.U64(handle);
  w.U32(target);
  w.U64(map_version);
  return w.Take();
}

Result<ReportStaleRequest> ReportStaleRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  ReportStaleRequest out;
  ASSIGN_OR_RETURN(out.handle, r.U64());
  ASSIGN_OR_RETURN(out.target, r.U32());
  ASSIGN_OR_RETURN(out.map_version, r.U64());
  return out;
}

// --- telemetry ---

Buffer GetStatsResponse::Encode() const {
  WireWriter w;
  w.U32(static_cast<uint32_t>(snapshot.values.size()));
  for (const auto& [name, value] : snapshot.values) {
    w.Str(name);
    w.U64(value);
  }
  w.U32(static_cast<uint32_t>(snapshot.histograms.size()));
  for (const auto& [name, hist] : snapshot.histograms) {
    w.Str(name);
    w.U64(hist.count);
    w.U64(hist.sum_ns);
    w.U32(static_cast<uint32_t>(hist.buckets.size()));
    for (uint64_t bucket : hist.buckets) {
      w.U64(bucket);
    }
  }
  return w.Take();
}

Result<GetStatsResponse> GetStatsResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  GetStatsResponse out;
  ASSIGN_OR_RETURN(uint32_t n_values, r.U32());
  RETURN_IF_ERROR(CheckCount(n_values, wire));
  for (uint32_t i = 0; i < n_values; ++i) {
    ASSIGN_OR_RETURN(std::string name, r.Str());
    ASSIGN_OR_RETURN(uint64_t value, r.U64());
    out.snapshot.values[std::move(name)] = value;
  }
  ASSIGN_OR_RETURN(uint32_t n_hists, r.U32());
  RETURN_IF_ERROR(CheckCount(n_hists, wire));
  for (uint32_t i = 0; i < n_hists; ++i) {
    ASSIGN_OR_RETURN(std::string name, r.Str());
    metrics::Histogram::Snapshot hist;
    ASSIGN_OR_RETURN(hist.count, r.U64());
    ASSIGN_OR_RETURN(hist.sum_ns, r.U64());
    ASSIGN_OR_RETURN(uint32_t buckets, r.U32());
    if (buckets != metrics::Histogram::kNumBuckets) {
      return ErrCorrupted("histogram bucket count mismatch");
    }
    for (uint32_t b = 0; b < buckets; ++b) {
      ASSIGN_OR_RETURN(hist.buckets[b], r.U64());
    }
    out.snapshot.histograms[std::move(name)] = hist;
  }
  if (!r.AtEnd()) {
    return ErrCorrupted("trailing bytes after stats body");
  }
  return out;
}

Buffer HealthResponse::Encode() const {
  WireWriter w;
  w.U32(static_cast<uint32_t>(role));
  w.U64(boot_epoch);
  w.U64(uptime_ns);
  w.U64(stripe_size);
  w.U32(stripe_width);
  w.U32(stripe_replicas);
  w.U64(rebuilds_completed);
  w.U32(static_cast<uint32_t>(files.size()));
  for (const FileHealth& file : files) {
    w.Str(file.path);
    w.U64(file.map_version);
    w.U32(static_cast<uint32_t>(file.stale_targets.size()));
    for (uint32_t target : file.stale_targets) {
      w.U32(target);
    }
  }
  w.U64(delegations_active);
  w.U64(leases_active);
  w.U64(dedup_entries);
  return w.Take();
}

Result<HealthResponse> HealthResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  HealthResponse out;
  ASSIGN_OR_RETURN(uint32_t role, r.U32());
  if (role > static_cast<uint32_t>(Role::kMetadata)) {
    return ErrCorrupted("unknown health role");
  }
  out.role = static_cast<Role>(role);
  ASSIGN_OR_RETURN(out.boot_epoch, r.U64());
  ASSIGN_OR_RETURN(out.uptime_ns, r.U64());
  ASSIGN_OR_RETURN(out.stripe_size, r.U64());
  ASSIGN_OR_RETURN(out.stripe_width, r.U32());
  ASSIGN_OR_RETURN(out.stripe_replicas, r.U32());
  ASSIGN_OR_RETURN(out.rebuilds_completed, r.U64());
  ASSIGN_OR_RETURN(uint32_t n_files, r.U32());
  RETURN_IF_ERROR(CheckCount(n_files, wire));
  out.files.reserve(n_files);
  for (uint32_t i = 0; i < n_files; ++i) {
    FileHealth file;
    ASSIGN_OR_RETURN(file.path, r.Str());
    ASSIGN_OR_RETURN(file.map_version, r.U64());
    ASSIGN_OR_RETURN(uint32_t n_stale, r.U32());
    RETURN_IF_ERROR(CheckCount(n_stale, wire));
    file.stale_targets.reserve(n_stale);
    for (uint32_t s = 0; s < n_stale; ++s) {
      ASSIGN_OR_RETURN(uint32_t target, r.U32());
      file.stale_targets.push_back(target);
    }
    out.files.push_back(std::move(file));
  }
  ASSIGN_OR_RETURN(out.delegations_active, r.U64());
  ASSIGN_OR_RETURN(out.leases_active, r.U64());
  ASSIGN_OR_RETURN(out.dedup_entries, r.U64());
  if (!r.AtEnd()) {
    return ErrCorrupted("trailing bytes after health body");
  }
  return out;
}

// --- compound ---

Buffer CompoundRequest::Encode() const {
  WireWriter w;
  w.U32(static_cast<uint32_t>(ops.size()));
  for (const SubOp& sub : ops) {
    w.U32(sub.op);
    w.Bytes(sub.body.span());
  }
  return w.Take();
}

Result<CompoundRequest> CompoundRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  CompoundRequest out;
  ASSIGN_OR_RETURN(uint32_t n, r.U32());
  RETURN_IF_ERROR(CheckCount(n, wire));
  out.ops.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SubOp sub;
    ASSIGN_OR_RETURN(sub.op, r.U32());
    ASSIGN_OR_RETURN(sub.body, r.Bytes());
    out.ops.push_back(std::move(sub));
  }
  return out;
}

Buffer CompoundResponse::Encode() const {
  WireWriter w;
  w.U32(static_cast<uint32_t>(results.size()));
  for (const SubResult& sub : results) {
    w.U32(sub.op);
    w.I32(sub.status);
    w.Bytes(sub.body.span());
  }
  return w.Take();
}

Result<CompoundResponse> CompoundResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  CompoundResponse out;
  ASSIGN_OR_RETURN(uint32_t n, r.U32());
  RETURN_IF_ERROR(CheckCount(n, wire));
  out.results.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SubResult sub;
    ASSIGN_OR_RETURN(sub.op, r.U32());
    ASSIGN_OR_RETURN(sub.status, r.I32());
    ASSIGN_OR_RETURN(sub.body, r.Bytes());
    out.results.push_back(std::move(sub));
  }
  return out;
}

// --- callbacks ---

Buffer CbRecallRequest::Encode() const {
  WireWriter w;
  w.U64(client_channel);
  w.U64(offset);
  w.U64(size);
  return w.Take();
}

Result<CbRecallRequest> CbRecallRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  CbRecallRequest out;
  ASSIGN_OR_RETURN(out.client_channel, r.U64());
  ASSIGN_OR_RETURN(out.offset, r.U64());
  ASSIGN_OR_RETURN(out.size, r.U64());
  return out;
}

Buffer CbRecallResponse::Encode() const {
  WireWriter w;
  w.Bytes(SerializeBlocks(blocks).span());
  return w.Take();
}

Result<CbRecallResponse> CbRecallResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  ASSIGN_OR_RETURN(Buffer raw, r.Bytes());
  CbRecallResponse out;
  ASSIGN_OR_RETURN(out.blocks, DeserializeBlocks(raw.span()));
  return out;
}

Buffer CbAttrInvalidateRequest::Encode() const {
  WireWriter w;
  w.U64(client_channel);
  return w.Take();
}

Result<CbAttrInvalidateRequest> CbAttrInvalidateRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  CbAttrInvalidateRequest out;
  ASSIGN_OR_RETURN(out.client_channel, r.U64());
  return out;
}

Buffer CbRecallDelegRequest::Encode() const {
  WireWriter w;
  w.U64(deleg_id);
  w.U64(incarnation);
  return w.Take();
}

Result<CbRecallDelegRequest> CbRecallDelegRequest::Decode(ByteSpan wire) {
  WireReader r(wire);
  CbRecallDelegRequest out;
  ASSIGN_OR_RETURN(out.deleg_id, r.U64());
  ASSIGN_OR_RETURN(out.incarnation, r.U64());
  return out;
}

Buffer CbRecallDelegResponse::Encode() const {
  WireWriter w;
  w.U32(has_times ? 1 : 0);
  w.U64(atime_ns);
  w.U64(mtime_ns);
  return w.Take();
}

Result<CbRecallDelegResponse> CbRecallDelegResponse::Decode(ByteSpan wire) {
  WireReader r(wire);
  CbRecallDelegResponse out;
  ASSIGN_OR_RETURN(uint32_t has, r.U32());
  out.has_times = has != 0;
  ASSIGN_OR_RETURN(out.atime_ns, r.U64());
  ASSIGN_OR_RETURN(out.mtime_ns, r.U64());
  return out;
}

}  // namespace springfs::dfs
