// springfs-stat: the introspection API end to end. Runs a representative
// stacked workload — a two-domain SFS under a VMM mapping, exported over
// DFS to a remote node — then renders the process-wide metrics registry as
// a Table-2-style per-layer overhead report, plus one traced operation's
// span tree showing where the time went.
//
//   ./build/examples/springfs_stat [--diff] [--watch [rounds]]
//                                  [--trace-dump] [--json]
//                                  [--cluster [addr,addr,...]]
//
//   --diff        render each workload phase (local, remote) as its own
//                 interval report — Delta(before, after) of the registry —
//                 instead of one cumulative report
//   --watch [N]   after the workload, keep driving remote reads for N
//                 rounds (default 3), printing the interval report of each
//                 round as it completes
//   --trace-dump  append the flight-recorder dump (the last few hundred
//                 retry/fault/eviction events with their trace ids)
//   --json        machine-readable output: one metrics::ToJson document
//                 (or, with --cluster, a JSON map keyed by server address)
//   --cluster     watch a cluster instead of one process: builds a striped
//                 replicated demo cluster (one metadata server + two data
//                 servers), drives striped I/O, then scrapes every server
//                 over the wire with kGetStats/kGetHealth and renders
//                 per-server columns plus a cluster aggregate. The
//                 optional address list ("node[:service],...") selects
//                 which of the demo servers to scrape; the default is all
//                 of them ("mds:dfs-meta,data0,data1", default service
//                 dfs-data). --watch/--diff/--json compose with it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/blockdev/decorators.h"
#include "src/layers/dfs/cluster_stats.h"
#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/dfs/stripe_mds.h"
#include "src/layers/dfs/striped_client.h"
#include "src/layers/sfs/sfs.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/stat_report.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"
#include "src/vmm/vmm.h"

using namespace springfs;

namespace {

metrics::Registry::Snapshot Snap() {
  return metrics::Registry::Global().Collect();
}

void PrintInterval(const char* title,
                   const metrics::Registry::Snapshot& before,
                   const metrics::Registry::Snapshot& after) {
  std::printf("=== interval: %s ===\n", title);
  std::fputs(obs::PerLayerReport(metrics::Delta(before, after)).c_str(),
             stdout);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--diff] [--watch [rounds]] [--trace-dump] "
               "[--json] [--cluster [addr,...]]\n",
               argv0);
  return 2;
}

// --- cluster mode ---

// Per-server columns of the "self/" counters (the section that genuinely
// differs per server — the rest of each scrape is the shared process
// registry), followed by one health line per server.
void PrintClusterTable(const std::vector<dfs::ServerScrape>& scrapes) {
  std::set<std::string> keys;
  for (const dfs::ServerScrape& scrape : scrapes) {
    for (const auto& [name, value] : scrape.stats.values) {
      if (value != 0 && name.rfind("self/", 0) == 0) {
        keys.insert(name);
      }
    }
  }
  std::printf("%-42s", "counter");
  for (const dfs::ServerScrape& scrape : scrapes) {
    std::printf(" %14s", scrape.address().c_str());
  }
  std::printf(" %14s\n", "cluster");
  for (const std::string& key : keys) {
    std::printf("%-42s", key.substr(5).c_str());
    uint64_t total = 0;
    for (const dfs::ServerScrape& scrape : scrapes) {
      uint64_t value = 0;
      auto it = scrape.stats.values.find(key);
      if (it != scrape.stats.values.end()) {
        value = it->second;
      }
      total += value;
      std::printf(" %14llu", static_cast<unsigned long long>(value));
    }
    std::printf(" %14llu\n", static_cast<unsigned long long>(total));
  }
  for (const dfs::ServerScrape& scrape : scrapes) {
    if (!scrape.health_status.ok()) {
      std::printf("health %-18s UNREACHABLE: %s\n", scrape.address().c_str(),
                  scrape.health_status.ToString().c_str());
      continue;
    }
    const dfs::HealthResponse& h = scrape.health;
    size_t stale_files = 0;
    size_t stale_targets = 0;
    for (const auto& file : h.files) {
      if (!file.stale_targets.empty()) {
        ++stale_files;
        stale_targets += file.stale_targets.size();
      }
    }
    std::printf(
        "health %-18s role=%s epoch=%llu uptime=%.1fms files=%zu "
        "stale_files=%zu stale_targets=%zu rebuilds=%llu delegs=%llu "
        "leases=%llu dedup=%llu\n",
        scrape.address().c_str(),
        h.role == dfs::HealthResponse::Role::kMetadata ? "metadata" : "data",
        static_cast<unsigned long long>(h.boot_epoch),
        static_cast<double>(h.uptime_ns) / 1e6, h.files.size(), stale_files,
        stale_targets, static_cast<unsigned long long>(h.rebuilds_completed),
        static_cast<unsigned long long>(h.delegations_active),
        static_cast<unsigned long long>(h.leases_active),
        static_cast<unsigned long long>(h.dedup_entries));
  }
}

void PrintClusterJson(const std::vector<dfs::ServerScrape>& scrapes) {
  std::string out = "{\"servers\":{";
  bool first = true;
  for (const dfs::ServerScrape& scrape : scrapes) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\"" + scrape.address() + "\":" + dfs::ScrapeToJson(scrape);
  }
  out += "},\"cluster\":" +
         metrics::ToJson(dfs::ClusterStatsClient::Aggregate(scrapes)) + "}";
  std::printf("%s\n", out.c_str());
}

// Same scrape set with every server's stats replaced by the interval since
// `before` (the health documents stay absolute — staleness is state, not a
// rate).
std::vector<dfs::ServerScrape> ScrapeDelta(
    const std::vector<dfs::ServerScrape>& before,
    const std::vector<dfs::ServerScrape>& after) {
  std::vector<dfs::ServerScrape> out = after;
  for (size_t i = 0; i < out.size() && i < before.size(); ++i) {
    out[i].stats = metrics::Delta(before[i].stats, after[i].stats);
  }
  return out;
}

int RunCluster(const std::string& addresses, bool json, bool diff,
               int watch_rounds) {
  constexpr uint64_t kStripeSize = 4 * kPageSize;
  constexpr size_t kWidth = 2;
  metrics::Registry::Global().Reset();

  net::Network network(&DefaultClock(), /*default_latency_ns=*/200'000);
  sp<net::Node> client_node = network.AddNode("client");
  sp<net::Node> probe_node = network.AddNode("probe");
  sp<net::Node> mds_node = network.AddNode("mds");

  std::vector<std::unique_ptr<MemBlockDevice>> devices;
  std::vector<Sfs> stores;
  std::vector<sp<dfs::DfsServer>> servers;
  dfs::StripeMdsConfig mds_config;
  mds_config.stripe_size = kStripeSize;
  mds_config.stripe_replicas = 2;
  for (size_t k = 0; k < kWidth; ++k) {
    std::string node_name = "data" + std::to_string(k);
    sp<net::Node> data_node = network.AddNode(node_name);
    devices.push_back(
        std::make_unique<MemBlockDevice>(ufs::kBlockSize, 16384));
    stores.push_back(
        CreateSfs(devices.back().get(), SfsOptions{}).take_value());
    servers.push_back(dfs::DfsServer::Create(data_node, &network, "dfs-data",
                                             stores.back().root)
                          .take_value());
    mds_config.stripe_targets.push_back({node_name, "dfs-data"});
  }
  devices.push_back(std::make_unique<MemBlockDevice>(ufs::kBlockSize, 16384));
  stores.push_back(
      CreateSfs(devices.back().get(), SfsOptions{}).take_value());
  sp<dfs::StripeMds> mds =
      dfs::StripeMds::Create(mds_node, &network, "dfs-meta",
                             stores.back().root, &DefaultClock(), mds_config)
          .take_value();

  sp<dfs::StripedDfsClient> client =
      dfs::StripedDfsClient::Mount(client_node, &network, "mds", "dfs-meta")
          .take_value();
  sp<File> file = client->CreateStriped("workload").take_value();

  dfs::ClusterStatsClient scraper("probe", &network);
  std::string list =
      addresses.empty() ? "mds:dfs-meta,data0,data1" : addresses;
  for (const auto& [node, service] :
       dfs::ClusterStatsClient::ParseTargets(list, "dfs-data")) {
    scraper.AddServer(node, service);
  }

  auto workload = [&] {
    Buffer data(16 * kStripeSize);
    for (size_t i = 0; i < data.size(); ++i) {
      data.mutable_span()[i] = static_cast<unsigned char>(i * 31);
    }
    file->Write(0, data.span()).take_value();
    file->Read(0, data.mutable_span()).take_value();
  };

  std::vector<dfs::ServerScrape> baseline = scraper.ScrapeAll();
  workload();
  std::vector<dfs::ServerScrape> scrapes = scraper.ScrapeAll();

  if (json && watch_rounds == 0) {
    PrintClusterJson(diff ? ScrapeDelta(baseline, scrapes) : scrapes);
    return 0;
  }
  if (!json) {
    if (diff) {
      std::printf("=== cluster interval: workload ===\n");
      PrintClusterTable(ScrapeDelta(baseline, scrapes));
    } else {
      std::printf("=== cluster scrape (%zu servers) ===\n", scrapes.size());
      PrintClusterTable(scrapes);
    }
  }

  for (int round = 1; round <= watch_rounds; ++round) {
    std::vector<dfs::ServerScrape> before = scrapes;
    workload();
    scrapes = scraper.ScrapeAll();
    if (json) {
      PrintClusterJson(ScrapeDelta(before, scrapes));
    } else {
      std::printf("=== cluster watch round %d/%d ===\n", round,
                  watch_rounds);
      PrintClusterTable(ScrapeDelta(before, scrapes));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool diff = false;
  bool trace_dump = false;
  bool json = false;
  bool cluster = false;
  std::string cluster_addresses;
  int watch_rounds = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--diff") == 0) {
      diff = true;
    } else if (std::strcmp(argv[i], "--trace-dump") == 0) {
      trace_dump = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--cluster") == 0) {
      cluster = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        cluster_addresses = argv[++i];
      }
    } else if (std::strcmp(argv[i], "--watch") == 0) {
      watch_rounds = 3;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        watch_rounds = std::atoi(argv[++i]);
        if (watch_rounds <= 0) {
          return Usage(argv[0]);
        }
      }
    } else {
      return Usage(argv[0]);
    }
  }

  if (cluster) {
    return RunCluster(cluster_addresses, json, diff, watch_rounds);
  }

  Credentials creds = Credentials::System();
  metrics::Registry::Global().Reset();

  // A two-domain SFS (coherency layer and disk layer in separate domains)
  // on a latency-modelled disk — the configuration where per-layer
  // attribution is interesting.
  LatencyBlockDevice disk(
      std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192),
      DiskLatencyModel{});
  SfsOptions options;
  options.placement = SfsPlacement::kTwoDomains;
  Sfs sfs = CreateSfs(&disk, options).take_value();

  // Local workload: file-interface I/O plus a coherent mapping.
  metrics::Registry::Snapshot before_local = Snap();
  sp<File> file =
      sfs.root->CreateFile(*Name::Parse("workload"), creds).take_value();
  Buffer page(kPageSize);
  for (size_t i = 0; i < page.size(); ++i) {
    page.mutable_span()[i] = static_cast<unsigned char>(i);
  }
  for (int i = 0; i < 200; ++i) {
    file->Write(0, page.span()).take_value();
    file->Read(0, page.mutable_span()).take_value();
    file->Stat().take_value();
  }
  sp<Domain> client_domain = Domain::Create("client");
  sp<Vmm> vmm = Vmm::Create(client_domain, "client");
  sp<MappedRegion> region =
      vmm->Map(file, AccessRights::kReadWrite).take_value();
  Buffer word(8);
  SPRINGFS_CHECK_OK(region->Read(0, word.mutable_span()));
  SPRINGFS_CHECK_OK(region->Write(0, word.span()));

  // Remote workload: export the stack over DFS and read it from a second
  // node, so the network and DFS layers show up in the report too.
  metrics::Registry::Snapshot before_remote = Snap();
  net::Network network(&DefaultClock(), /*default_latency_ns=*/200'000);
  sp<net::Node> server_node = network.AddNode("fileserver");
  sp<net::Node> client_node = network.AddNode("client");
  sp<dfs::DfsServer> server =
      dfs::DfsServer::Create(server_node, &network, "export", sfs.root)
          .take_value();
  sp<dfs::DfsClient> remote =
      dfs::DfsClient::Mount(client_node, &network, "fileserver", "export")
          .take_value();
  sp<File> remote_file =
      ResolveAs<File>(remote, "workload", creds).take_value();
  for (int i = 0; i < 20; ++i) {
    remote_file->Read(0, page.mutable_span()).take_value();
  }
  metrics::Registry::Snapshot after_remote = Snap();

  if (json) {
    std::printf("%s\n", metrics::ToJson(after_remote).c_str());
    return 0;
  }

  // One traced operation: the span tree attributes a single remote read's
  // time to the DFS client call, the network hop, the server's dispatch,
  // and the cross-domain calls into the local stack below it.
  {
    trace::TraceRoot root("remote_read");
    remote_file->Read(0, word.mutable_span()).take_value();
    const trace::Span& span = root.Finish();
    std::printf("trace of one remote 8-byte read:\n%s\n",
                trace::ToString(span).c_str());
  }

  if (diff) {
    // Per-phase interval reports instead of one cumulative blob.
    PrintInterval("local workload", before_local, before_remote);
    PrintInterval("remote workload", before_remote, after_remote);
  } else {
    // The unified introspection surface: one Collect() covers every layer,
    // domain, VMM, coherency engine, and the network.
    std::fputs(
        obs::PerLayerReport(metrics::Registry::Global().Collect()).c_str(),
        stdout);
  }

  // --watch: keep the remote reader going, reporting each round's interval.
  for (int round = 1; round <= watch_rounds; ++round) {
    metrics::Registry::Snapshot before = Snap();
    for (int i = 0; i < 20; ++i) {
      remote_file->Read(0, page.mutable_span()).take_value();
    }
    char title[32];
    std::snprintf(title, sizeof(title), "watch round %d/%d", round,
                  watch_rounds);
    PrintInterval(title, before, Snap());
  }

  if (trace_dump) {
    std::printf("=== flight recorder ===\n%s", flight::Dump().c_str());
  }
  return 0;
}
