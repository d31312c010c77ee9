// The striped metadata server (DESIGN.md §14, §15): the Lustre-style MDS
// role, in its own class so a plain file server carries none of it.
//
// A StripeMds is a DfsServer over the metadata store: it resolves paths
// and owns attributes and the logical length like any file server. On top
// of that it answers kGetStripeMap with each file's geometry, lazily
// creating the per-file lane objects on the data servers (plain
// DfsServers, each over its own store, that need no configuration). It
// also keeps each file's replica staleness and map version in a sidecar on
// its store, honours kReportStaleReplica, and rebuilds stale replicas on
// demand. Placement itself is StripeLayout's (stripe_layout.h).

#ifndef SPRINGFS_LAYERS_DFS_STRIPE_MDS_H_
#define SPRINGFS_LAYERS_DFS_STRIPE_MDS_H_

#include <atomic>

#include "src/layers/dfs/dfs_server.h"
#include "src/layers/dfs/stripe_layout.h"

namespace springfs::dfs {

// The metadata role's creation inputs.
struct StripeMdsConfig {
  struct Target {
    std::string node;
    std::string service;
  };
  uint64_t stripe_size = 4 * 4096;  // bytes per stripe unit (page multiple)
  std::vector<Target> stripe_targets;  // the data servers, in stripe order
  // Replica lanes per stripe (R, clamped to the target count). With
  // R >= 2 a dead data server degrades its stripes (reads fail over to a
  // peer replica, writes skip it and mark it stale) instead of failing
  // them; R = 1 is plain RAID-0, where any unreachable target fails the
  // map request.
  uint32_t stripe_replicas = 2;
};

// One striped file's replica staleness and map version. The MDS caches it
// in memory and persists it in a sidecar on its store, so a restarted MDS
// re-derives it and the version stays monotonic.
struct StripeState {
  uint64_t version = 1;
  std::vector<bool> stale;  // by target index
};

// The stripe-state sidecar record: u64 version, u32 count, count u32
// stale flags, then the logical path (so a cold incumbent can walk the
// store's sidecars without waiting for client traffic). Its bytes come
// from the store, so Decode rejects anything short or malformed.
struct StripeSidecar {
  std::string path;
  StripeState state;

  Buffer Encode() const;
  static Result<StripeSidecar> Decode(ByteSpan bytes);

  // The sidecar's file name on the metadata store: "." + the file's
  // stripe object name + "-state". Every such name has the same length.
  static std::string NameFor(const std::string& path);
};

class StripeMds : public DfsServer {
 public:
  // Creates the metadata server on `node`, stacked on the metadata store
  // `under`. Fails with kInvalidArgument unless `config` names at least
  // one target and stripe_size is a non-zero page multiple.
  static Result<sp<StripeMds>> Create(const sp<net::Node>& node,
                                      net::Network* network,
                                      const std::string& service,
                                      sp<StackableFs> under, Clock* clock,
                                      const StripeMdsConfig& config,
                                      const DfsServerOptions& options = {});

  void CollectStats(const metrics::StatsEmitter& emit) const override;

  // One pass of the background rebuild daemon: for every striped file
  // with stale targets, re-syncs each stale target's lane objects from a
  // fresh peer (a whole-object copy) and clears the mark under a bumped,
  // persisted map version. Returns the number of stale targets brought
  // back fresh. Deterministic and idempotent, so tests and embedders drive
  // it explicitly; it assumes the rebuilt files are quiesced (writes
  // racing the copy can be missed — DESIGN.md §15).
  Result<size_t> RunRebuildPass();

 protected:
  net::Frame HandleStripeOp(Op op, const net::Frame& request) override;
  void FillRoleHealth(HealthResponse& body) override;

 private:
  StripeMds(const sp<net::Node>& node, net::Network* network,
            std::string service, sp<StackableFs> under, Clock* clock,
            const DfsServerOptions& options, const StripeMdsConfig& config);

  net::Frame HandleGetStripeMap(const net::Frame& request);
  net::Frame HandleReportStale(const net::Frame& request);

  // `path`'s state: the memory cache, else its sidecar, else the default.
  StripeState LoadStripeState(const std::string& path);
  // Caches `state` for `path` unless a state is cached already (memory is
  // authoritative for this boot); returns the cached state.
  StripeState CacheStripeState(const std::string& path, StripeState state);
  // Persists and caches `state` for `path`. Best-effort: a failed sidecar
  // write is recorded, and the in-memory state stays authoritative for
  // this boot.
  void StoreStripeState(const std::string& path, const StripeState& state);
  Status WriteSidecar(const std::string& path, const StripeState& state);
  Result<StripeSidecar> ReadSidecar(const std::string& name);
  // Walks the store's sidecars and caches every file's state, so a cold
  // incumbent's view (rebuild pass, kGetHealth) is complete. Local reads
  // only.
  void LoadAllSidecarStates();
  // Marks target `t` stale for `path` unless it is the last fresh target
  // (a cluster cannot serve from zero fresh replicas). Returns true when
  // the state changed (mark applied, version bumped and persisted).
  bool MarkReplicaStale(const std::string& path, size_t t);

  // The lookup -> create -> re-lookup ladder ensuring one stripe object on
  // one data server; returns its current handle.
  Result<uint64_t> EnsureStripeObject(const StripeMdsConfig::Target& target,
                                      const std::string& name);
  // Builds `file`'s stripe map, ensuring every target's lane objects. With
  // R >= 2 an unreachable target is marked stale and served with zero
  // handles instead of failing the map.
  Result<StripeMapResponse> BuildStripeMap(const sp<ServerFile>& file);
  // Re-syncs every lane object of stale target `t` from a fresh peer.
  Status RebuildTarget(const std::string& object_name, size_t t,
                       const StripeState& state);

  const std::vector<StripeMdsConfig::Target> targets_;
  const StripeLayout layout_;

  // Per-file state by path. Never held across a wire call.
  std::mutex stripe_mutex_;
  std::map<std::string, StripeState> stripe_states_;

  // Role counters, published with the server's under the same prefix.
  std::atomic<uint64_t> maps_served_{0};       // kGetStripeMap replies
  std::atomic<uint64_t> objects_created_{0};   // lane objects created
  std::atomic<uint64_t> replicas_marked_stale_{0};
  std::atomic<uint64_t> stale_reports_{0};     // kReportStaleReplica served
  std::atomic<uint64_t> rebuilds_{0};          // stale targets re-synced
  std::atomic<uint64_t> rebuild_bytes_{0};     // bytes copied by rebuilds
};

}  // namespace springfs::dfs

#endif  // SPRINGFS_LAYERS_DFS_STRIPE_MDS_H_
