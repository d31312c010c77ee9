// Typed wire codec for the DFS protocol.
//
// Every DFS operation has a request struct and (where it returns data) a
// response struct; each encodes into the Frame payload through WireWriter /
// WireReader; the Frame header carries only transport fields (type, status,
// request id, epoch, trace context, tag). Typed bodies are what make
// compound operations possible: a compound program is
// simply a sequence of (op, encoded request body) pairs, and its result a
// sequence of (op, status, encoded response body) triples, reusing the
// same per-op structs as single-frame dispatch.
//
// Conventions:
//   * integers are little-endian u32/u64/i32
//   * strings and byte blobs carry a u32 length prefix
//   * a `handle` of 0 inside a compound body means "the current handle"
//     (the register set by the last kLookup/kCreate/kOpen in the program)

#ifndef SPRINGFS_LAYERS_DFS_WIRE_H_
#define SPRINGFS_LAYERS_DFS_WIRE_H_

#include <string>
#include <vector>

#include "src/fs/file.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"

namespace springfs::dfs {

class WireWriter {
 public:
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v);
  void Str(const std::string& s);    // u32 length + bytes
  void Bytes(ByteSpan data);         // u32 length + bytes
  Buffer Take() { return std::move(out_); }

 private:
  Buffer out_;
};

class WireReader {
 public:
  explicit WireReader(ByteSpan wire) : wire_(wire) {}

  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int32_t> I32();
  Result<std::string> Str();
  Result<Buffer> Bytes();
  bool AtEnd() const { return at_ >= wire_.size(); }

 private:
  ByteSpan wire_;
  size_t at_ = 0;
};

// --- name-space ops (the path is the whole request) ---

struct PathRequest {  // kLookup, kCreate, kMkdir, kRemove, kReadDir
  std::string path;

  Buffer Encode() const;
  static Result<PathRequest> Decode(ByteSpan wire);
};

struct LookupResponse {
  uint64_t handle = 0;  // 0 for directories (they carry no handle)
  bool is_dir = false;

  Buffer Encode() const;
  static Result<LookupResponse> Decode(ByteSpan wire);
};

struct CreateResponse {
  uint64_t handle = 0;

  Buffer Encode() const;
  static Result<CreateResponse> Decode(ByteSpan wire);
};

struct ReadDirResponse {
  struct Entry {
    std::string name;
    bool is_dir = false;
  };
  std::vector<Entry> entries;

  Buffer Encode() const;
  static Result<ReadDirResponse> Decode(ByteSpan wire);
};

// --- attribute ops ---

struct HandleRequest {  // kGetAttr, kGetLength, kSyncFile
  uint64_t handle = 0;

  Buffer Encode() const;
  static Result<HandleRequest> Decode(ByteSpan wire);
};

struct GetAttrResponse {
  FileAttributes attrs;

  Buffer Encode() const;
  static Result<GetAttrResponse> Decode(ByteSpan wire);
};

struct SetTimesRequest {
  uint64_t handle = 0;
  uint64_t atime_ns = 0;
  uint64_t mtime_ns = 0;

  Buffer Encode() const;
  static Result<SetTimesRequest> Decode(ByteSpan wire);
};

struct SetLengthRequest {
  uint64_t handle = 0;
  uint64_t length = 0;

  Buffer Encode() const;
  static Result<SetLengthRequest> Decode(ByteSpan wire);
};

struct GetLengthResponse {
  uint64_t length = 0;

  Buffer Encode() const;
  static Result<GetLengthResponse> Decode(ByteSpan wire);
};

// --- whole-file data ops ---

struct ReadRequest {
  uint64_t handle = 0;
  uint64_t offset = 0;
  uint64_t length = 0;

  Buffer Encode() const;
  static Result<ReadRequest> Decode(ByteSpan wire);
};

struct ReadResponse {
  Buffer data;

  Buffer Encode() const;
  static Result<ReadResponse> Decode(ByteSpan wire);
};

struct WriteRequest {
  uint64_t handle = 0;
  uint64_t offset = 0;
  Buffer data;

  Buffer Encode() const;
  static Result<WriteRequest> Decode(ByteSpan wire);
};

struct WriteResponse {
  uint64_t written = 0;

  Buffer Encode() const;
  static Result<WriteResponse> Decode(ByteSpan wire);
};

// --- pager-cache channel ---

struct BindCacheRequest {
  uint64_t handle = 0;
  uint64_t client_channel = 0;
  bool is_fs_cache = false;
  std::string node;     // where callbacks go
  std::string service;  // the client's callback service

  Buffer Encode() const;
  static Result<BindCacheRequest> Decode(ByteSpan wire);
};

struct BindCacheResponse {
  uint64_t cache_id = 0;

  Buffer Encode() const;
  static Result<BindCacheResponse> Decode(ByteSpan wire);
};

struct UnbindCacheRequest {
  uint64_t handle = 0;
  uint64_t cache_id = 0;

  Buffer Encode() const;
  static Result<UnbindCacheRequest> Decode(ByteSpan wire);
};

struct PageInRequest {  // kPageIn and kPageInRange
  uint64_t handle = 0;
  uint64_t cache_id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  bool write_access = false;

  Buffer Encode() const;
  static Result<PageInRequest> Decode(ByteSpan wire);
};

struct PageInResponse {  // kPageIn: one contiguous blob
  Buffer data;

  Buffer Encode() const;
  static Result<PageInResponse> Decode(ByteSpan wire);
};

struct PageInRangeResponse {  // kPageInRange: a block list (EOF may clamp)
  std::vector<BlockData> blocks;

  Buffer Encode() const;
  static Result<PageInRangeResponse> Decode(ByteSpan wire);
};

struct PageOutRequest {  // kPageOut, kWriteOut, kSyncPages
  uint64_t handle = 0;
  uint64_t cache_id = 0;
  uint64_t offset = 0;
  Buffer data;

  Buffer Encode() const;
  static Result<PageOutRequest> Decode(ByteSpan wire);
};

// --- open + delegations ---

enum class DelegationKind : uint32_t {
  kNone = 0,
  kRead = 1,
  kWrite = 2,
};

struct OpenRequest {
  uint64_t handle = 0;  // 0 = the compound current handle
  DelegationKind want_delegation = DelegationKind::kNone;
  std::string node;     // recall callbacks go here...
  std::string service;  // ...to this service

  Buffer Encode() const;
  static Result<OpenRequest> Decode(ByteSpan wire);
};

struct OpenResponse {
  uint64_t handle = 0;
  uint64_t deleg_id = 0;  // 0 = no delegation granted
  DelegationKind granted = DelegationKind::kNone;
  uint64_t incarnation = 0;  // fences recalls/returns across re-grants
  uint64_t expires_at = 0;   // absolute server-clock lease expiry

  Buffer Encode() const;
  static Result<OpenResponse> Decode(ByteSpan wire);
};

struct DelegReturnRequest {
  uint64_t handle = 0;
  uint64_t deleg_id = 0;
  uint64_t incarnation = 0;
  bool has_times = false;  // dirty attrs buffered under a write delegation
  uint64_t atime_ns = 0;
  uint64_t mtime_ns = 0;

  Buffer Encode() const;
  static Result<DelegReturnRequest> Decode(ByteSpan wire);
};

// --- striping ---

struct StripeMapResponse {  // kGetStripeMap (request side is HandleRequest)
  struct Target {
    std::string node;     // data-server node on the fabric
    std::string service;  // its DFS service name
    // One stripe-object handle per replica lane hosted on this server
    // (size = replicas; lane_handles[0] is the primary lane). Handles are
    // hints: valid for the server boot epoch that issued them; clients get
    // fresh ones with a map refetch after a data-server restart. All
    // zeros when the server was unreachable while the map was built.
    std::vector<uint64_t> lane_handles;
    // True when this target's replicas missed writes (its server was down
    // or a client reported a failed write) and have not been rebuilt yet.
    // Stale replicas are excluded from reads and writes; a background
    // rebuild re-syncs them from a fresh peer and clears the mark under a
    // bumped map_version.
    bool stale = false;
  };

  uint64_t stripe_size = 0;  // bytes per stripe unit (page multiple)
  uint64_t length = 0;       // logical file length (metadata-owned)
  uint64_t map_version = 1;  // bumped on every staleness change; persisted
                             // at the metadata server so it stays monotonic
                             // across MDS restarts. Clients ignore maps
                             // older than the one they hold.
  uint32_t replicas = 1;     // replica lanes per stripe (R)
  std::string object_name;   // durable per-file primary-lane object name on
                             // every data server (stable across restarts);
                             // lane r > 0 appends "-r<r>"
  std::vector<Target> targets;  // rotated-replica order: replica r of
                                // logical stripe s lives on target
                                // (s + r) % targets.size(), in that
                                // target's lane-r object, at the same
                                // local offset as the primary copy

  Buffer Encode() const;
  static Result<StripeMapResponse> Decode(ByteSpan wire);
};

struct ReportStaleRequest {  // kReportStaleReplica -> StripeMapResponse
  uint64_t handle = 0;       // metadata handle of the striped file
  uint32_t target = 0;       // index of the target that missed a write
  uint64_t map_version = 0;  // the map the reporter acted under (for
                             // observability; marking is conservative and
                             // honored regardless — a skipped replica
                             // missed data no matter which map said so)

  Buffer Encode() const;
  static Result<ReportStaleRequest> Decode(ByteSpan wire);
};

// --- telemetry ---

struct GetStatsResponse {  // kGetStats (request body is empty)
  // The server process's full metrics registry: every counter plus every
  // latency histogram (count, sum, and all kNumBuckets power-of-two
  // buckets). The serving server also folds its own StatsProvider counters
  // in under a "self/" prefix, so a scrape of several servers sharing one
  // process (the simulated world) still tells them apart. Decoding rejects
  // truncated bodies, trailing bytes, and histograms whose bucket count
  // does not match the registry's compiled-in shape.
  metrics::Registry::Snapshot snapshot;

  Buffer Encode() const;
  static Result<GetStatsResponse> Decode(ByteSpan wire);
};

struct HealthResponse {  // kGetHealth (request body is empty)
  enum class Role : uint32_t {
    kData = 0,      // plain data/file server
    kMetadata = 1,  // striped metadata server (has stripe targets)
  };

  // One tracked striped file's replica health, as the metadata server
  // sees it: the durable map version and the indices of stripe targets
  // whose replicas missed writes and have not been rebuilt.
  struct FileHealth {
    std::string path;
    uint64_t map_version = 1;
    std::vector<uint32_t> stale_targets;
  };

  Role role = Role::kData;
  uint64_t boot_epoch = 0;
  uint64_t uptime_ns = 0;        // server clock now - boot time
  uint64_t stripe_size = 0;      // 0 on a non-striped server
  uint32_t stripe_width = 0;     // number of data targets (0 = not MDS)
  uint32_t stripe_replicas = 0;  // replica lanes per stripe (0 = not MDS)
  uint64_t rebuilds_completed = 0;  // stale targets re-synced, cumulative
  std::vector<FileHealth> files;    // striped files with tracked state
  uint64_t delegations_active = 0;  // live delegations across all files
  uint64_t leases_active = 0;       // live remote cache bindings (leases)
  uint64_t dedup_entries = 0;       // request-id dedup window occupancy

  Buffer Encode() const;
  static Result<HealthResponse> Decode(ByteSpan wire);
};

// --- compound ---

struct CompoundRequest {
  struct SubOp {
    uint32_t op = 0;  // an Op value
    Buffer body;      // that op's encoded request struct
  };
  std::vector<SubOp> ops;

  Buffer Encode() const;
  static Result<CompoundRequest> Decode(ByteSpan wire);
};

struct CompoundResponse {
  struct SubResult {
    uint32_t op = 0;
    int32_t status = 0;  // ErrorCode; 0 = ok
    Buffer body;         // response body when ok, error message when not
  };
  // One entry per *attempted* op: every completed op plus, when the
  // pipeline stopped early, the single failing op. Ops after the failure
  // were never attempted and have no entry.
  std::vector<SubResult> results;

  Buffer Encode() const;
  static Result<CompoundResponse> Decode(ByteSpan wire);
};

// --- server -> client callbacks ---

struct CbRecallRequest {  // kCbFlushBack, kCbDenyWrites
  uint64_t client_channel = 0;
  uint64_t offset = 0;
  uint64_t size = 0;

  Buffer Encode() const;
  static Result<CbRecallRequest> Decode(ByteSpan wire);
};

struct CbRecallResponse {
  std::vector<BlockData> blocks;

  Buffer Encode() const;
  static Result<CbRecallResponse> Decode(ByteSpan wire);
};

struct CbAttrInvalidateRequest {
  uint64_t client_channel = 0;

  Buffer Encode() const;
  static Result<CbAttrInvalidateRequest> Decode(ByteSpan wire);
};

struct CbRecallDelegRequest {
  uint64_t deleg_id = 0;
  uint64_t incarnation = 0;

  Buffer Encode() const;
  static Result<CbRecallDelegRequest> Decode(ByteSpan wire);
};

struct CbRecallDelegResponse {
  bool has_times = false;  // the holder's buffered attr writes
  uint64_t atime_ns = 0;
  uint64_t mtime_ns = 0;

  Buffer Encode() const;
  static Result<CbRecallDelegResponse> Decode(ByteSpan wire);
};

}  // namespace springfs::dfs

#endif  // SPRINGFS_LAYERS_DFS_WIRE_H_
