// Seeded network-chaos property harness for DFS (DESIGN.md §11).
//
// Two writer clients work disjoint pages of one exported file while the
// schedule kills and revives clients, restarts the server, partitions and
// heals links, and arms seeded FaultPlans that drop/duplicate/delay
// requests and responses. After every schedule the world is healed and the
// harness asserts:
//
//   * no lost acknowledged writes — every page's final server-side value is
//     one of {last acknowledged write} ∪ {writes whose fate was unknown};
//   * eventual convergence — a fresh verifier mount and every surviving
//     client (after invalidating its caches) read the same value;
//   * the server's per-file coherency invariants hold.
//
// Schedules are deterministic from their seed (FakeClock + seeded Rng +
// seeded FaultPlans); a failure prints "seed=N" for replay.
//
// The file also carries deterministic exactly-once tests for duplicated
// frames and the multi-threaded fault-injection tests the TSan CI job
// exercises.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>

#include "src/layers/dfs/cluster_stats.h"
#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/dfs/stripe_mds.h"
#include "src/layers/dfs/striped_client.h"
#include "src/layers/sfs/sfs.h"
#include "src/obs/flight_recorder.h"
#include "src/support/rng.h"
#include "src/vmm/vmm.h"

namespace springfs {
namespace {

using dfs::DfsClient;
using dfs::DfsServer;

constexpr int kClients = 2;
constexpr int kPagesPerClient = 2;
constexpr int kPages = kClients * kPagesPerClient;

Buffer TagBuffer(uint64_t value) {
  Buffer out(8);
  for (int i = 0; i < 8; ++i) {
    out.data()[i] = static_cast<uint8_t>(value >> (8 * i));
  }
  return out;
}

Result<uint64_t> ReadTag(const sp<File>& file, int page) {
  Buffer out(8);
  ASSIGN_OR_RETURN(size_t n,
                   file->Read(static_cast<Offset>(page) * kPageSize,
                              out.mutable_span()));
  uint64_t value = 0;
  for (int i = static_cast<int>(n) - 1; i >= 0; --i) {
    value = (value << 8) | out.data()[i];
  }
  return value;
}

// One simulated cluster: a server node exporting one SFS file, two client
// nodes with VMMs, and a spare node for the end-of-schedule verifier.
struct ChaosWorld {
  Credentials sys = Credentials::System();
  FakeClock clock;
  std::unique_ptr<net::Network> network;
  sp<net::Node> server_node, client_nodes[kClients], verifier_node;
  std::unique_ptr<MemBlockDevice> device;
  Sfs sfs;
  sp<DfsServer> server;
  // Replaced servers stay alive until the end of the schedule: destroying
  // one would stamp its tombstone over the live successor's service.
  std::vector<sp<DfsServer>> retired_servers;
  sp<DfsClient> clients[kClients];
  sp<Vmm> vmms[kClients];
  sp<File> files[kClients];

  bool delegated = false;

  explicit ChaosWorld(uint64_t lease_ns = 10'000'000, bool pipelined = false,
                      bool with_delegations = false)
      : delegated(with_delegations) {
    network = std::make_unique<net::Network>(&clock, 1000);
    server_node = network->AddNode("server");
    verifier_node = network->AddNode("verifier");
    for (int i = 0; i < kClients; ++i) {
      client_nodes[i] = network->AddNode("client" + std::to_string(i));
    }
    device = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192);
    sfs = *CreateSfs(device.get(), SfsOptions{}, &clock);
    dfs::DfsServerOptions options;
    options.lease_ns = lease_ns;
    server = *DfsServer::Create(server_node, network.get(), "dfs", sfs.root,
                                &clock, options);
    sp<File> seeded = *sfs.root->CreateFile(*Name::Parse("chaos"), sys);
    EXPECT_TRUE(seeded->SetLength(kPages * kPageSize).ok());
    // Every world mounts the clients over a mount channel. Pipelined worlds
    // widen it to depth 4 and tune it for this fabric (1µs links, 50µs
    // injected delays): the 100µs RTO beats nothing that merely crawled,
    // but recovers drops long before the default mount's 1ms RTO would.
    dfs::DfsClientOptions client_options;
    if (delegated) {
      // Compound opens asking for read delegations: grants, recalls,
      // conflicts, and expiry now ride every schedule.
      client_options.compound = true;
      client_options.delegations = true;
    }
    if (pipelined) {
      client_options.async_depth = 4;
      client_options.channel.rto_ns = 100'000;
      client_options.channel.rack_reorder_ns = 10'000;
      client_options.channel.max_retransmits = 3;
    }
    for (int i = 0; i < kClients; ++i) {
      clients[i] = *DfsClient::Mount(client_nodes[i], network.get(), "server",
                                     "dfs", &clock, client_options);
      vmms[i] = Vmm::Create(client_nodes[i]->domain(),
                            "vmm" + std::to_string(i));
      files[i] = *ResolveAs<File>(clients[i], "chaos", sys);
    }
  }

  void RestartServer() {
    dfs::DfsServerOptions options;
    options.lease_ns = 10'000'000;
    if (delegated) {
      // A successor cannot know the delegations its predecessor granted;
      // grace >= the predecessor's lease keeps mutations out until every
      // pre-restart delegation has provably expired (DESIGN.md §13).
      options.grace_ns = options.lease_ns;
    }
    retired_servers.push_back(server);
    server = *DfsServer::Create(server_node, network.get(), "dfs", sfs.root,
                                &clock, options);
  }
};

// Model of one page: the last write the writer saw acknowledged, plus every
// write whose fate is unknown (errored out, or sitting unsynced in a cache
// when its client was killed). The server's value must always be in
// {acked} ∪ pending.
struct PageModel {
  uint64_t acked = 0;  // pages start zero-filled
  std::set<uint64_t> pending;

  bool Allows(uint64_t value) const {
    return value == acked || pending.count(value) > 0;
  }
  std::string Describe() const {
    std::string out = "acked=" + std::to_string(acked) + " pending={";
    for (uint64_t v : pending) {
      out += std::to_string(v) + ",";
    }
    return out + "}";
  }
  void Ack(uint64_t value) {
    acked = value;
    pending.clear();
  }
};

// Accumulated across a shard so the sweep can prove it exercised the
// recovery and delegation machinery (individual seeds may legitimately
// never drop a frame or grant).
struct ShardTeeth {
  uint64_t granted = 0;
  uint64_t recalled = 0;
  uint64_t retransmits = 0;  // transport copies: rack + rto
  uint64_t dedup_hits = 0;   // server replays of a retransmitted request
};

void RunChaosSeed(uint64_t seed, bool pipelined = false,
                  bool delegated = false, ShardTeeth* teeth = nullptr) {
  // Per-seed black box: the flight recorder holds only this schedule's
  // events, so a failure dump reads as the seed's own story.
  flight::Clear();
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               (pipelined ? " (pipelined)" : "") +
               (delegated ? " (delegated)" : ""));
  ChaosWorld world(10'000'000, pipelined, delegated);
  Rng rng(seed);
  PageModel model[kPages];
  sp<MappedRegion> regions[kClients];
  uint64_t mapped_value[kPages] = {};  // latest value written via a mapping
  // A sync may only acknowledge a mapped value if the page is still the
  // client's dirty copy: a recall (triggered by a direct write) or a cache
  // invalidation in between means the sync pushed nothing.
  bool mapped_dirty[kPages] = {};
  uint64_t invalidations_at_write[kPages] = {};
  bool dead[kClients] = {};
  bool faults_armed = false;
  uint64_t next_value = 1;

  auto own_page = [&](int client) {
    return client * kPagesPerClient +
           static_cast<int>(rng.Below(kPagesPerClient));
  };

  constexpr int kSteps = 40;
  for (int step = 0; step < kSteps; ++step) {
    world.clock.Advance(rng.Range(1, 2'000'000));
    int c = static_cast<int>(rng.Below(kClients));
    uint64_t action = rng.Below(100);

    if (action < 30) {
      // Direct write to an own page. ok => acknowledged; error => fate
      // unknown (a dropped response means it may have applied anyway).
      if (dead[c]) continue;
      int page = own_page(c);
      uint64_t value = next_value++;
      Buffer tag = TagBuffer(value);
      Result<size_t> wrote =
          world.files[c]->Write(static_cast<Offset>(page) * kPageSize,
                                tag.span());
      if (wrote.ok()) {
        model[page].Ack(value);
      } else {
        model[page].pending.insert(value);
      }
      // Either way the server-side acquire recalled (or orphaned) whatever
      // mapped copy the client held; a later sync pushes nothing.
      mapped_dirty[page] = false;
    } else if (action < 45) {
      // Direct read of any page: whatever comes back must be a value the
      // model allows (this also recalls other clients' cached dirty data
      // through the server's coherency engine).
      if (dead[c]) continue;
      if (world.delegated && rng.Chance(1, 3)) {
        // Re-open: zero trips under a valid delegation, else a fresh
        // compound open (which may re-grant).
        Result<sp<File>> reopened =
            ResolveAs<File>(world.clients[c], "chaos", world.sys);
        if (reopened.ok()) {
          world.files[c] = *reopened;
        }
      }
      int page = static_cast<int>(rng.Below(kPages));
      Result<uint64_t> value = ReadTag(world.files[c], page);
      if (value.ok()) {
        EXPECT_TRUE(model[page].Allows(*value))
            << "step " << step << " page " << page << " read " << *value
            << " but model has " << model[page].Describe();
      }
    } else if (action < 60) {
      // Mapped write to an own page: lands only in the client's cache, so
      // it is pending until a sync (or a server-side recall) pushes it.
      if (dead[c]) continue;
      if (!regions[c]) {
        Result<sp<MappedRegion>> mapped =
            world.vmms[c]->Map(world.files[c], AccessRights::kReadWrite);
        if (!mapped.ok()) continue;
        regions[c] = *mapped;
      }
      int page = own_page(c);
      uint64_t value = next_value++;
      Buffer tag = TagBuffer(value);
      if (regions[c]->Write(static_cast<Offset>(page) * kPageSize,
                            tag.span()).ok()) {
        model[page].pending.insert(value);
        mapped_value[page] = value;
        mapped_dirty[page] = true;
        invalidations_at_write[page] =
            metrics::StatValue(*world.clients[c], "channels_invalidated");
      } else {
        // The region's channel is gone (evicted / invalidated); remap on
        // the next mapped action.
        regions[c].reset();
      }
    } else if (action < 70) {
      // Sync the mapping: success acknowledges the latest mapped value of
      // every own page that is still this client's dirty copy.
      if (dead[c] || !regions[c]) continue;
      if (regions[c]->Sync().ok()) {
        uint64_t invalidations =
            metrics::StatValue(*world.clients[c], "channels_invalidated");
        for (int p = c * kPagesPerClient; p < (c + 1) * kPagesPerClient;
             ++p) {
          if (mapped_dirty[p] && mapped_value[p] != 0 &&
              invalidations_at_write[p] == invalidations) {
            model[p].Ack(mapped_value[p]);
          }
          mapped_dirty[p] = false;
        }
      } else {
        regions[c].reset();
      }
    } else if (action < 80) {
      // Kill / revive. A killed client keeps whatever it cached; a revived
      // one must not trust it (it has likely been evicted), so revival
      // invalidates the caches and drops the mapping.
      if (!dead[c]) {
        world.network->SetPartitioned(world.client_nodes[c]->name(), true);
        dead[c] = true;
      } else {
        world.network->SetPartitioned(world.client_nodes[c]->name(), false);
        world.clients[c]->InvalidateCaches();
        regions[c].reset();
        for (int p = c * kPagesPerClient; p < (c + 1) * kPagesPerClient;
             ++p) {
          mapped_dirty[p] = false;
        }
        dead[c] = false;
      }
    } else if (action < 85) {
      world.RestartServer();
    } else if (action < 92) {
      // Toggle seeded message loss (sometimes global, sometimes one link).
      if (faults_armed) {
        world.network->DisarmFaults();
        faults_armed = false;
      } else {
        net::FaultPlan plan;
        plan.seed = seed ^ (0x9E3779B97F4A7C15ull * (step + 1));
        plan.drop_request_pct = 15;
        plan.drop_response_pct = 15;
        plan.dup_request_pct = 10;
        plan.delay_pct = 10;
        plan.delay_ns = 50'000;
        if (rng.Chance(1, 2)) {
          world.network->ArmFaults(plan);
        } else {
          world.network->ArmFaultsOnLink(
              world.client_nodes[rng.Below(kClients)]->name(), "server",
              plan);
        }
        faults_armed = true;
      }
    } else {
      // Long silence: leases lapse, so the next conflicting acquire evicts
      // idle holders instead of calling them.
      world.clock.Advance(rng.Range(15'000'000, 30'000'000));
    }
  }

  // Heal the world and converge.
  world.network->DisarmFaults();
  for (int c = 0; c < kClients; ++c) {
    world.network->SetPartitioned(world.client_nodes[c]->name(), false);
    world.clients[c]->InvalidateCaches();
    regions[c].reset();
  }
  ASSERT_TRUE(world.server->CheckCoherencyInvariants());

  sp<DfsClient> verifier = *DfsClient::Mount(
      world.verifier_node, world.network.get(), "server", "dfs",
      &world.clock);
  sp<File> verified = *ResolveAs<File>(verifier, "chaos", world.sys);
  for (int page = 0; page < kPages; ++page) {
    Result<uint64_t> value = ReadTag(verified, page);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_TRUE(model[page].Allows(*value))
        << "page " << page << " converged to " << *value
        << " but model has " << model[page].Describe()
        << " — an acknowledged write was lost";
    // Every surviving client agrees with the verifier.
    for (int c = 0; c < kClients; ++c) {
      Result<uint64_t> theirs = ReadTag(world.files[c], page);
      ASSERT_TRUE(theirs.ok()) << theirs.status().ToString();
      EXPECT_EQ(*theirs, *value) << "client " << c << " diverges on page "
                                 << page;
    }
  }
  ASSERT_TRUE(world.server->CheckCoherencyInvariants());
  if (teeth) {
    teeth->retransmits +=
        metrics::StatValue(*world.network, "rack_retransmits") +
        metrics::StatValue(*world.network, "rto_retransmits");
    std::vector<sp<DfsServer>> servers = world.retired_servers;
    servers.push_back(world.server);
    for (const auto& server : servers) {
      teeth->granted += metrics::StatValue(*server, "delegations_granted");
      teeth->recalled += metrics::StatValue(*server, "delegations_recalled");
      teeth->dedup_hits += metrics::StatValue(*server, "dedup_hits");
    }
  }
}

// On the first seed that fails, print the flight recorder — the drops,
// retries, dedup replays, and evictions that preceded the bad assertion —
// and save it to a file CI uploads as an artifact.
void DumpFlightOnFailure(uint64_t seed, bool* dumped) {
  if (*dumped || !::testing::Test::HasFailure()) {
    return;
  }
  *dumped = true;
  std::string header = "chaos seed=" + std::to_string(seed);
  std::fprintf(stderr, "=== flight recorder (%s, last 64 events) ===\n%s",
               header.c_str(), flight::Dump(64).c_str());
  flight::DumpToArtifact("chaos", header);
}

// 4 shards x 55 seeds = 220 schedules, each run three times: on default
// (depth-1) mounts, pipelined, and with compound opens + read delegations
// enabled (same seeds, so every sweep faces the same schedules).
void RunChaosShard(uint64_t first_seed, bool pipelined = false,
                   bool delegated = false) {
  bool dumped = false;
  ShardTeeth teeth;
  for (uint64_t seed = first_seed; seed < first_seed + 55; ++seed) {
    RunChaosSeed(seed, pipelined, delegated, &teeth);
    DumpFlightOnFailure(seed, &dumped);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  if (delegated) {
    EXPECT_GT(teeth.granted, 0u) << "the sweep never granted a delegation";
    EXPECT_GT(teeth.recalled, 0u) << "the sweep never recalled a delegation";
  }
  if (!pipelined && !delegated) {
    // Default mounts recover loss in the channel, not the logical retry
    // loop: a shard whose channels never retransmitted (or whose servers
    // never replayed a retransmitted request) proves nothing about it.
    EXPECT_GT(teeth.retransmits, 0u) << "no transport retransmit in shard";
    EXPECT_GT(teeth.dedup_hits, 0u) << "no dedup replay in shard";
  }
}

TEST(ChaosDfs, SeededSchedulesShard0) { RunChaosShard(1000); }
TEST(ChaosDfs, SeededSchedulesShard1) { RunChaosShard(2000); }
TEST(ChaosDfs, SeededSchedulesShard2) { RunChaosShard(3000); }
TEST(ChaosDfs, SeededSchedulesShard3) { RunChaosShard(4000); }

TEST(ChaosDfs, DelegatedSeededSchedulesShard0) {
  RunChaosShard(1000, false, true);
}
TEST(ChaosDfs, DelegatedSeededSchedulesShard1) {
  RunChaosShard(2000, false, true);
}
TEST(ChaosDfs, DelegatedSeededSchedulesShard2) {
  RunChaosShard(3000, false, true);
}
TEST(ChaosDfs, DelegatedSeededSchedulesShard3) {
  RunChaosShard(4000, false, true);
}

TEST(ChaosDfs, PipelinedSeededSchedulesShard0) { RunChaosShard(1000, true); }
TEST(ChaosDfs, PipelinedSeededSchedulesShard1) { RunChaosShard(2000, true); }
TEST(ChaosDfs, PipelinedSeededSchedulesShard2) { RunChaosShard(3000, true); }
TEST(ChaosDfs, PipelinedSeededSchedulesShard3) { RunChaosShard(4000, true); }

// On a delay-heavy plan the pipelined mount must converge in strictly
// fewer virtual-clock ticks than a default mount: a crawling request pins
// the default mount's caller for the whole injected delay (its 1ms RTO
// outlasts it), while the pipelined channel's 100µs RTO copy races past.
struct DelayHeavyRun {
  uint64_t ticks = 0;
  uint64_t recoveries = 0;  // rack + rto retransmits spent
};

DelayHeavyRun MeasureDelayHeavyRun(bool pipelined) {
  DelayHeavyRun run;
  ChaosWorld world(10'000'000, pipelined);
  net::FaultPlan plan;
  plan.seed = 3;
  plan.delay_pct = 60;
  plan.delay_ns = 500'000;
  world.network->ArmFaultsOnLink("client0", "server", plan);
  TimeNs before = world.clock.Now();
  for (uint64_t i = 1; i <= 12; ++i) {
    Buffer tag = TagBuffer(i);
    Result<size_t> wrote = world.files[0]->Write(0, tag.span());
    EXPECT_TRUE(wrote.ok()) << wrote.status().ToString();
    Result<uint64_t> back = ReadTag(world.files[0], 0);
    EXPECT_TRUE(back.ok()) << back.status().ToString();
    if (back.ok()) {
      EXPECT_EQ(*back, i);
    }
  }
  run.ticks = world.clock.Now() - before;
  run.recoveries = metrics::StatValue(*world.network, "rack_retransmits") +
                   metrics::StatValue(*world.network, "rto_retransmits");
  world.network->DisarmFaults();
  return run;
}

TEST(ChaosDfs, PipelinedConvergesInFewerTicksThanSyncUnderDelay) {
  DelayHeavyRun default_mount = MeasureDelayHeavyRun(false);
  DelayHeavyRun piped = MeasureDelayHeavyRun(true);
  EXPECT_LT(piped.ticks, default_mount.ticks)
      << "pipelined recovery must beat the default mount's waiting on "
         "delay-heavy plans";
  EXPECT_EQ(default_mount.recoveries, 0u)
      << "the default mount's RTO outlasts every injected delay";
  EXPECT_GT(piped.recoveries, 0u)
      << "the speedup should come from RTO/RACK copies racing the delays";
}

// The chaos machinery must have teeth: across a handful of schedules the
// interesting failure paths actually fire (otherwise the harness is
// asserting nothing).
TEST(ChaosDfs, SchedulesExerciseTheFailurePaths) {
  metrics::Registry::Global().counter("coh/evictions").Reset();
  uint64_t dedup_hits = 0, evicted = 0, dropped = 0, restarts = 0;
  bool dumped = false;
  for (uint64_t seed = 7000; seed < 7012; ++seed) {
    RunChaosSeed(seed);
    DumpFlightOnFailure(seed, &dumped);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  evicted = metrics::Registry::Global().counter("coh/evictions").Value();
  // Network + client counters are per-world, so re-run one seed and sample.
  {
    ChaosWorld world;
    net::FaultPlan plan;
    plan.seed = 42;
    plan.drop_response_pct = 100;
    world.network->ArmFaultsOnLink("client0", "server", plan);
    Buffer tag = TagBuffer(77);
    (void)world.files[0]->Write(0, tag.span());
    world.network->DisarmFaults();
    dedup_hits = metrics::StatValue(*world.server, "dedup_hits");
    dropped = metrics::StatValue(*world.network, "dropped_responses");
    restarts = metrics::StatValue(*world.clients[0], "retries");
  }
  EXPECT_GT(evicted, 0u) << "no schedule ever evicted a holder";
  EXPECT_GT(dedup_hits, 0u) << "dedup window never answered";
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(restarts, 0u);
}

// --- deterministic exactly-once tests ---

TEST(ChaosDfs, DuplicatedMutatingFrameAppliesExactlyOnce) {
  ChaosWorld world;
  // Every request from client0 is delivered twice; the duplicate carries
  // the same request id, so the dedup window must swallow the second run.
  net::FaultPlan plan;
  plan.seed = 9;
  plan.dup_request_pct = 100;
  world.network->ArmFaultsOnLink("client0", "server", plan);
  Result<sp<File>> created =
      world.clients[0]->CreateFile(*Name::Parse("dup-once"), world.sys);
  world.network->DisarmFaults();
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_GT(metrics::StatValue(*world.network, "duplicated_requests"), 0u);
  EXPECT_GT(metrics::StatValue(*world.server, "dedup_hits"), 0u)
      << "the duplicate must be answered from the window, not re-executed";
  EXPECT_TRUE(ResolveAs<File>(world.sfs.root, "dup-once", world.sys).ok());
}

TEST(ChaosDfs, DroppedResponseRetransmissionAppliesExactlyOnce) {
  ChaosWorld world;
  world.network->DropNextResponses("client0", "server", 1);
  Buffer tag = TagBuffer(123);
  // The write executes, its response is lost, the client retries the same
  // request id, and the dedup window replays the original response.
  Result<size_t> wrote = world.files[0]->Write(0, tag.span());
  ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
  EXPECT_EQ(metrics::StatValue(*world.server, "dedup_hits"), 1u);
  EXPECT_EQ(*ReadTag(world.files[1], 0), 123u);
}

// --- striped chaos: data-server kills and restarts mid-workload ---
//
// A striped cluster (metadata server + two data servers, one-page stripes)
// under a seeded schedule of single-page reads and writes interleaved with
// partitioning and restarting individual data servers. Per-page model as
// above: acknowledged writes must never be lost, errored writes have
// unknown fate. After healing, the surviving client and a fresh verifier
// mount must agree on every page, and the sweep as a whole must have
// exercised per-stripe recovery (stripe rebinds after restarts).

constexpr int kStripedWidth = 2;
constexpr int kStripedPages = 4;  // one-page stripes: pages 0,2 on data0

struct StripedChaosWorld {
  Credentials sys = Credentials::System();
  FakeClock clock;
  std::unique_ptr<net::Network> network;
  sp<net::Node> client_node, verifier_node, mds_node;
  sp<net::Node> data_nodes[kStripedWidth];
  std::vector<std::unique_ptr<MemBlockDevice>> devices;
  std::vector<Sfs> stores;  // data stores, then the metadata store
  sp<dfs::DfsServer> data_servers[kStripedWidth];
  std::vector<sp<dfs::DfsServer>> retired_servers;
  sp<dfs::StripeMds> mds;
  sp<dfs::StripedDfsClient> client;
  sp<File> file;
  dfs::StripeMdsConfig mds_config;

  // The single-copy sweep pins replicas = 1: it asserts PR-8 semantics
  // (a dead target's stripes fail, recovery is rebind-after-restart). The
  // replicated sweep below runs the same world at replicas = 2.
  explicit StripedChaosWorld(uint32_t replicas = 1) {
    network = std::make_unique<net::Network>(&clock, 1000);
    client_node = network->AddNode("client");
    verifier_node = network->AddNode("verifier");
    mds_node = network->AddNode("mds");
    mds_config.stripe_size = kPageSize;
    mds_config.stripe_replicas = replicas;
    for (int k = 0; k < kStripedWidth; ++k) {
      data_nodes[k] = network->AddNode("data" + std::to_string(k));
      devices.push_back(
          std::make_unique<MemBlockDevice>(ufs::kBlockSize, 4096));
      stores.push_back(*CreateSfs(devices.back().get(), SfsOptions{},
                                  &clock));
      data_servers[k] = *dfs::DfsServer::Create(
          data_nodes[k], network.get(), "dfs-data", stores[k].root, &clock);
      mds_config.stripe_targets.push_back(
          {data_nodes[k]->name(), "dfs-data"});
    }
    devices.push_back(std::make_unique<MemBlockDevice>(ufs::kBlockSize, 4096));
    stores.push_back(*CreateSfs(devices.back().get(), SfsOptions{}, &clock));
    mds = *dfs::StripeMds::Create(mds_node, network.get(), "dfs-meta",
                                  stores.back().root, &clock, mds_config);
    client = *dfs::StripedDfsClient::Mount(client_node, network.get(), "mds",
                                           "dfs-meta", &clock);
    file = *client->CreateStriped("chaos");
    EXPECT_TRUE(file->SetLength(kStripedPages * kPageSize).ok());
  }

  // New instance over the same store: new boot epoch, fresh handle space.
  // The predecessor is retired, not destroyed (its tombstone would stamp
  // the successor's service).
  void RestartDataServer(int k) {
    retired_servers.push_back(data_servers[k]);
    data_servers[k] = *dfs::DfsServer::Create(
        data_nodes[k], network.get(), "dfs-data", stores[k].root, &clock);
  }

  // Reads lane `lane`'s stripe object on data server k through its own
  // plain DFS mount (server-side caches cannot hide unflushed pages).
  Buffer ReadLaneObject(int k, const std::string& object_name, size_t lane) {
    std::string name = object_name;
    if (lane > 0) {
      name += "-r" + std::to_string(lane);
    }
    sp<dfs::DfsClient> direct = *dfs::DfsClient::Mount(
        verifier_node, network.get(), data_nodes[k]->name(), "dfs-data",
        &clock);
    Result<sp<File>> object = ResolveAs<File>(direct, name, sys);
    if (!object.ok()) {
      return Buffer{};
    }
    uint64_t len = *(*object)->GetLength();
    Buffer out(len);
    EXPECT_EQ(*(*object)->Read(0, out.mutable_span()), len);
    return out;
  }

  // The stripe object's durable (lane-0) name off a data store's root.
  // Replica lanes append "-r<lane>", so the base name is the shortest
  // "stripe-" match.
  std::string StripeObjectName(int k) {
    std::string best;
    std::vector<BindingInfo> entries = *stores[k].root->List(sys);
    for (const BindingInfo& entry : entries) {
      if (entry.name.rfind("stripe-", 0) == 0 &&
          (best.empty() || entry.name.size() < best.size())) {
        best = entry.name;
      }
    }
    return best;
  }
};

// Accumulated across a shard so the sweep can prove the recovery paths ran
// (one seed may legitimately never kill a server mid-binding).
struct StripedTeeth {
  uint64_t rebinds = 0;
  uint64_t restarts_seen = 0;
};

void RunStripedChaosSeed(uint64_t seed, StripedTeeth* teeth) {
  flight::Clear();
  SCOPED_TRACE("striped seed=" + std::to_string(seed));
  StripedChaosWorld world;
  Rng rng(seed);
  PageModel model[kStripedPages];
  bool dead[kStripedWidth] = {};
  uint64_t next_value = 1;

  constexpr int kSteps = 30;
  for (int step = 0; step < kSteps; ++step) {
    world.clock.Advance(rng.Range(1, 2'000'000));
    uint64_t action = rng.Below(100);

    if (action < 40) {
      // Single-page write (one stripe extent — exactly one data server).
      // ok => acknowledged; error => fate unknown: the extent may have
      // landed before the failure was declared.
      int page = static_cast<int>(rng.Below(kStripedPages));
      uint64_t value = next_value++;
      Buffer tag = TagBuffer(value);
      Result<size_t> wrote =
          world.file->Write(static_cast<Offset>(page) * kPageSize,
                            tag.span());
      if (wrote.ok()) {
        model[page].Ack(value);
      } else {
        model[page].pending.insert(value);
      }
    } else if (action < 70) {
      // Single-page read: whatever comes back must be model-allowed. A
      // page on a dead or restarting target may just fail, which asserts
      // nothing — the teeth counters prove recoveries happen often enough.
      int page = static_cast<int>(rng.Below(kStripedPages));
      Result<uint64_t> value =
          ReadTag(world.file, page);
      if (value.ok()) {
        EXPECT_TRUE(model[page].Allows(*value))
            << "step " << step << " page " << page << " read " << *value
            << " but model has " << model[page].Describe();
      }
    } else if (action < 85) {
      // Kill / heal one data server. Its stripes fail while it is out;
      // the other server's stripes must keep their own fate.
      int k = static_cast<int>(rng.Below(kStripedWidth));
      world.network->SetPartitioned(world.data_nodes[k]->name(), !dead[k]);
      dead[k] = !dead[k];
    } else if (action < 95) {
      // Restart one data server (fresh boot epoch): every handle and
      // cache binding the client holds for its stripes goes stale, and
      // the next touch must refetch the map and rebind just that stripe.
      int k = static_cast<int>(rng.Below(kStripedWidth));
      world.RestartDataServer(k);
    } else {
      // Long silence: data-server leases lapse under the client.
      world.clock.Advance(rng.Range(15'000'000, 30'000'000));
    }
  }

  // Heal and converge: every page settles to a model-allowed value, and a
  // fresh verifier mount agrees with the surviving client byte for byte.
  for (int k = 0; k < kStripedWidth; ++k) {
    world.network->SetPartitioned(world.data_nodes[k]->name(), false);
  }
  sp<dfs::StripedDfsClient> verifier = *dfs::StripedDfsClient::Mount(
      world.verifier_node, world.network.get(), "mds", "dfs-meta",
      &world.clock);
  Result<sp<File>> verified = verifier->OpenStriped("chaos");
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  for (int page = 0; page < kStripedPages; ++page) {
    Result<uint64_t> value = ReadTag(*verified, page);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_TRUE(model[page].Allows(*value))
        << "page " << page << " converged to " << *value << " but model has "
        << model[page].Describe() << " — an acknowledged write was lost";
    Result<uint64_t> theirs = ReadTag(world.file, page);
    ASSERT_TRUE(theirs.ok()) << theirs.status().ToString();
    EXPECT_EQ(*theirs, *value) << "surviving client diverges on page "
                               << page;
  }
  for (int k = 0; k < kStripedWidth; ++k) {
    ASSERT_TRUE(world.data_servers[k]->CheckCoherencyInvariants());
  }
  if (teeth) {
    teeth->rebinds += metrics::StatValue(*world.client, "stripe_rebinds");
    teeth->restarts_seen +=
        metrics::StatValue(*world.client, "target_restarts");
  }
}

// 4 shards x 55 seeds = 220 striped schedules.
void RunStripedChaosShard(uint64_t first_seed) {
  bool dumped = false;
  StripedTeeth teeth;
  for (uint64_t seed = first_seed; seed < first_seed + 55; ++seed) {
    RunStripedChaosSeed(seed, &teeth);
    DumpFlightOnFailure(seed, &dumped);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(teeth.rebinds, 0u)
      << "no schedule ever rebound a stripe after a data-server restart";
  EXPECT_GT(teeth.restarts_seen, 0u)
      << "no schedule ever observed a data-server boot-epoch bump";
}

TEST(ChaosStripedDfs, SeededSchedulesShard0) { RunStripedChaosShard(1000); }
TEST(ChaosStripedDfs, SeededSchedulesShard1) { RunStripedChaosShard(2000); }
TEST(ChaosStripedDfs, SeededSchedulesShard2) { RunStripedChaosShard(3000); }
TEST(ChaosStripedDfs, SeededSchedulesShard3) { RunStripedChaosShard(4000); }

// --- replicated striped chaos: a dead server is absorbed, rebuild converges ---
//
// The same cluster at replica factor 2: every one-page stripe has a copy
// on both data servers (lane 1 of stripe s sits on target (s + 1) % 2). A
// seeded schedule kills (partitions) ONE data server mid-workload; from
// that step on every client op must STILL SUCCEED — reads fail over to the
// surviving replica inside the fan-out, writes complete degraded after the
// client reports the dead target stale to the metadata server. The model
// is therefore exact (last acknowledged value per page), not a pending
// set: at R=2 a single failure is absorbed, never surfaced.
//
// After the schedule the partition heals, a successor comes up over the
// same store, and one rebuild pass must re-sync its lane objects
// byte-for-byte and clear the stale marks — a second pass finds nothing
// to do, and a fresh verifier mount agrees with the model on every page.

struct ReplicatedTeeth {
  uint64_t failovers = 0;        // reads served by the surviving replica
  uint64_t degraded_writes = 0;  // writes completed on one copy of two
  uint64_t rebuilds = 0;         // targets re-synced by rebuild passes
  uint64_t stale_visible = 0;    // stale targets seen via kGetHealth
};

void RunReplicatedChaosSeed(uint64_t seed, ReplicatedTeeth* teeth) {
  flight::Clear();
  SCOPED_TRACE("replicated seed=" + std::to_string(seed));
  StripedChaosWorld world(/*replicas=*/2);
  Rng rng(seed);
  uint64_t model[kStripedPages] = {};  // 0 == never written (reads as zeros)
  uint64_t next_value = 1;
  const int victim = static_cast<int>(rng.Below(kStripedWidth));
  const int kill_step = static_cast<int>(rng.Range(5, 20));

  constexpr int kSteps = 30;
  for (int step = 0; step < kSteps; ++step) {
    world.clock.Advance(rng.Range(1, 2'000'000));
    if (step == kill_step) {
      world.network->SetPartitioned(world.data_nodes[victim]->name(), true);
    }
    uint64_t action = rng.Below(100);
    if (action < 50) {
      int page = static_cast<int>(rng.Below(kStripedPages));
      uint64_t value = next_value++;
      Buffer tag = TagBuffer(value);
      Result<size_t> wrote = world.file->Write(
          static_cast<Offset>(page) * kPageSize, tag.span());
      ASSERT_TRUE(wrote.ok())
          << "step " << step << ": write failed with one replica of two "
          << "down — " << wrote.status().ToString();
      model[page] = value;
    } else if (action < 90) {
      int page = static_cast<int>(rng.Below(kStripedPages));
      Result<uint64_t> value = ReadTag(world.file, page);
      ASSERT_TRUE(value.ok())
          << "step " << step << ": read failed with one replica of two "
          << "down — " << value.status().ToString();
      EXPECT_EQ(*value, model[page]) << "step " << step << " page " << page;
    } else {
      // Long silence: leases lapse under the client. Recovery from that
      // must not surface errors either.
      world.clock.Advance(rng.Range(15'000'000, 30'000'000));
    }
  }

  // Heal the partition, bring a successor up over the victim's store, and
  // rebuild. Whether anything is stale depends on the schedule (a seed may
  // never write after the kill); the shard-level teeth prove the degraded
  // paths ran across the sweep.
  world.network->SetPartitioned(world.data_nodes[victim]->name(), false);

  // Degraded state must be visible *through the wire*, not just to code
  // holding a server pointer: scrape the MDS's kGetHealth and check the
  // stale sets against what this schedule actually did.
  dfs::ClusterStatsClient scraper("verifier", world.network.get());
  scraper.AddServer("mds", "dfs-meta");
  auto scrape_health = [&]() -> dfs::HealthResponse {
    std::vector<dfs::ServerScrape> scrapes = scraper.ScrapeAll();
    EXPECT_EQ(scrapes.size(), 1u);
    if (scrapes.size() == 1) {
      EXPECT_TRUE(scrapes[0].health_status.ok())
          << scrapes[0].health_status.ToString();
      return scrapes[0].health;
    }
    return {};
  };
  auto stale_count = [](const dfs::HealthResponse& health) {
    size_t stale = 0;
    for (const auto& file : health.files) {
      stale += file.stale_targets.size();
    }
    return stale;
  };
  dfs::HealthResponse before_rebuild = scrape_health();
  EXPECT_EQ(before_rebuild.role, dfs::HealthResponse::Role::kMetadata);
  EXPECT_EQ(before_rebuild.stripe_width, 2u);
  EXPECT_EQ(before_rebuild.stripe_replicas, 2u);
  if (metrics::StatValue(*world.client, "degraded_writes") > 0) {
    // Every degraded write skipped the victim, so the MDS must be
    // advertising its mark to anyone who asks.
    bool victim_stale = false;
    for (const auto& file : before_rebuild.files) {
      for (uint32_t t : file.stale_targets) {
        victim_stale |= t == static_cast<uint32_t>(victim);
      }
    }
    EXPECT_TRUE(victim_stale)
        << "degraded writes happened but kGetHealth shows no stale mark "
        << "on the victim";
  }
  size_t stale_before = stale_count(before_rebuild);

  world.RestartDataServer(victim);
  Result<uint64_t> rebuilt = world.mds->RunRebuildPass();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(*rebuilt, stale_before)
      << "rebuild pass cleared a different number of targets than "
      << "kGetHealth advertised as stale";

  // A successful rebuild clears every stale mark: the second pass is a
  // no-op, and the health document agrees over the wire.
  Result<uint64_t> second = world.mds->RunRebuildPass();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, 0u) << "stale marks survived a successful rebuild";
  dfs::HealthResponse after_rebuild = scrape_health();
  EXPECT_EQ(stale_count(after_rebuild), 0u)
      << "kGetHealth still advertises stale targets after a clean rebuild";
  EXPECT_EQ(after_rebuild.rebuilds_completed, *rebuilt)
      << "kGetHealth rebuild counter disagrees with RunRebuildPass";
  for (const auto& file : after_rebuild.files) {
    for (const auto& old_file : before_rebuild.files) {
      if (old_file.path == file.path) {
        EXPECT_GE(file.map_version, old_file.map_version)
            << "map version went backwards across a rebuild";
      }
    }
  }

  // Every lane-1 object is byte-identical to its primary again.
  ASSERT_TRUE(world.file->SyncFile().ok());
  std::string object_name = world.StripeObjectName(1 - victim);
  ASSERT_FALSE(object_name.empty());
  for (int t = 0; t < kStripedWidth; ++t) {
    Buffer primary = world.ReadLaneObject(t, object_name, 0);
    Buffer mirror =
        world.ReadLaneObject((t + 1) % kStripedWidth, object_name, 1);
    ASSERT_EQ(mirror.size(), primary.size()) << "target " << t;
    EXPECT_EQ(std::memcmp(mirror.data(), primary.data(), primary.size()), 0)
        << "target " << t << ": lane-1 copy diverged after rebuild";
  }

  // A fresh mount (fresh map, post-rebuild version) agrees with the model.
  sp<dfs::StripedDfsClient> verifier = *dfs::StripedDfsClient::Mount(
      world.verifier_node, world.network.get(), "mds", "dfs-meta",
      &world.clock);
  Result<sp<File>> verified = verifier->OpenStriped("chaos");
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  for (int page = 0; page < kStripedPages; ++page) {
    Result<uint64_t> value = ReadTag(*verified, page);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(*value, model[page]) << "verifier diverges on page " << page;
  }
  for (int k = 0; k < kStripedWidth; ++k) {
    ASSERT_TRUE(world.data_servers[k]->CheckCoherencyInvariants());
  }
  if (teeth) {
    teeth->failovers += metrics::StatValue(*world.client, "replica_failovers");
    teeth->degraded_writes +=
        metrics::StatValue(*world.client, "degraded_writes");
    teeth->rebuilds += *rebuilt;
    teeth->stale_visible += stale_before;
  }
}

// 4 shards x 55 seeds = 220 replicated schedules.
void RunReplicatedChaosShard(uint64_t first_seed) {
  bool dumped = false;
  ReplicatedTeeth teeth;
  for (uint64_t seed = first_seed; seed < first_seed + 55; ++seed) {
    RunReplicatedChaosSeed(seed, &teeth);
    DumpFlightOnFailure(seed, &dumped);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(teeth.failovers, 0u)
      << "no schedule ever served a read from the surviving replica";
  EXPECT_GT(teeth.degraded_writes, 0u)
      << "no schedule ever completed a write degraded";
  EXPECT_GT(teeth.rebuilds, 0u)
      << "no schedule ever rebuilt a stale target";
  EXPECT_GT(teeth.stale_visible, 0u)
      << "no schedule ever exposed a stale target through kGetHealth";
}

TEST(ChaosReplicatedDfs, SeededSchedulesShard0) {
  RunReplicatedChaosShard(5000);
}
TEST(ChaosReplicatedDfs, SeededSchedulesShard1) {
  RunReplicatedChaosShard(6000);
}
TEST(ChaosReplicatedDfs, SeededSchedulesShard2) {
  RunReplicatedChaosShard(7000);
}
TEST(ChaosReplicatedDfs, SeededSchedulesShard3) {
  RunReplicatedChaosShard(8000);
}

// --- thread-safety of the fault-injection plumbing (run under TSan) ---

TEST(ChaosNet, LinkFailureBudgetIsExactUnderConcurrency) {
  FakeClock clock;
  net::Network network(&clock, 1000);
  network.AddNode("a");
  sp<net::Node> b = network.AddNode("b");
  b->RegisterService("echo",
                     [](const net::Frame& request) { return request; });

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 50;
  constexpr uint64_t kBudget = 50;
  network.FailNextCallsOnLink("a", "b", kBudget, ErrorCode::kTimedOut);

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        Result<net::Frame> got = network.Call("a", "b", "echo", net::Frame{});
        if (!got.ok()) {
          EXPECT_EQ(got.status().code(), ErrorCode::kTimedOut);
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Each budgeted failure is consumed exactly once, no more, no fewer.
  EXPECT_EQ(failures.load(), kBudget);
  EXPECT_EQ(metrics::StatValue(network, "injected_failures"), kBudget);
  EXPECT_TRUE(network.Call("a", "b", "echo", net::Frame{}).ok());
}

TEST(ChaosNet, ConcurrentSendersSurviveFaultToggling) {
  FakeClock clock;
  net::Network network(&clock, 1000);
  sp<net::Node> a = network.AddNode("a");
  sp<net::Node> b = network.AddNode("b");
  a->RegisterService("echo",
                     [](const net::Frame& request) { return request; });
  b->RegisterService("echo",
                     [](const net::Frame& request) { return request; });

  std::atomic<bool> stop{false};
  std::vector<std::thread> senders;
  for (int t = 0; t < 4; ++t) {
    senders.emplace_back([&, t] {
      const std::string from = (t % 2 == 0) ? "a" : "b";
      const std::string to = (t % 2 == 0) ? "b" : "a";
      net::Frame request;
      for (int i = 0; i < 400; ++i) {
        request.request_id = i;
        (void)network.Call(from, to, "echo", request);
      }
    });
  }
  std::thread chaos([&] {
    Rng rng(77);
    while (!stop.load()) {
      switch (rng.Below(6)) {
        case 0:
          network.FailNextCalls(rng.Range(1, 4), ErrorCode::kTimedOut);
          break;
        case 1:
          network.FailNextCallsOnLink("a", "b", rng.Range(1, 4),
                                      ErrorCode::kConnectionLost);
          break;
        case 2: {
          net::FaultPlan plan;
          plan.seed = rng.Next();
          plan.drop_request_pct = 20;
          plan.drop_response_pct = 20;
          plan.dup_request_pct = 10;
          network.ArmFaults(plan);
          break;
        }
        case 3:
          network.DisarmFaults();
          break;
        case 4:
          network.SetPartitioned("a", true);
          break;
        default:
          network.SetPartitioned("a", false);
          break;
      }
    }
  });
  for (auto& t : senders) {
    t.join();
  }
  stop.store(true);
  chaos.join();
  // Heal and confirm the fabric still works. DisarmFaults clears the
  // seeded plans but not FailNextCalls budgets, so drain any leftovers.
  network.DisarmFaults();
  network.SetPartitioned("a", false);
  bool healed = false;
  for (int i = 0; i < 32 && !healed; ++i) {
    healed = network.Call("a", "b", "echo", net::Frame{}).ok();
  }
  EXPECT_TRUE(healed);
  EXPECT_GT(metrics::StatValue(network, "calls"), 0u);
}

}  // namespace
}  // namespace springfs
