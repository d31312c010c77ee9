// Figure 7 — DFS stacked on SFS.
//
// Reproduces the figure's three claims as measurements:
//   1. "Local binds to file_DFS are forwarded to the corresponding
//      file_SFS" — local mapped I/O costs the same as direct SFS access and
//      generates zero network messages / zero DFS page traffic.
//   2. Remote access goes through the DFS protocol — per-op cost scales
//      with the simulated network latency.
//   3. Remote and local caches are kept coherent through the P2-C2
//      connection — measured as the callback cost on a ping-pong workload.
//
// Exits non-zero unless the verdicts hold: local mapped reads record zero
// network messages and zero DFS page-ins, the DFS-mapped and SFS-mapped
// regions share one cache channel, and a remote 4KB read costs at least
// one round trip (2x the one-way latency).

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/sfs/sfs.h"
#include "src/support/logging.h"
#include "src/vmm/vmm.h"
#include "src/support/rng.h"

using namespace springfs;
using bench::Measurement;
using bench::TimeOp;
using dfs::DfsClient;
using dfs::DfsServer;

int main() {
  Credentials creds = Credentials::System();
  constexpr uint64_t kLatencyNs = 100'000;  // 100us one-way

  net::Network network(&DefaultClock(), kLatencyNs);
  sp<net::Node> server_node = network.AddNode("server");
  sp<net::Node> client_node = network.AddNode("client");

  MemBlockDevice device(ufs::kBlockSize, 16384);
  Sfs sfs = CreateSfs(&device, SfsOptions{}).take_value();
  sp<DfsServer> server =
      DfsServer::Create(server_node, &network, "dfs", sfs.root).take_value();
  sp<DfsClient> client =
      DfsClient::Mount(client_node, &network, "server", "dfs").take_value();

  sp<File> file = server->CreateFile(*Name::Parse("f"), creds).take_value();
  SPRINGFS_CHECK_OK(file->SetLength(4 * kPageSize));
  Rng rng(1);
  Buffer page = rng.RandomBuffer(kPageSize);
  file->Write(0, page.span()).take_value();

  std::printf("Figure 7: DFS on SFS (one-way network latency %llu us)\n",
              static_cast<unsigned long long>(kLatencyNs / 1000));
  bench::PrintRule(72);

  // 1. Local mapped access: binds forwarded, DFS uninvolved.
  sp<Vmm> local_vmm = Vmm::Create(server_node->domain(), "local-vmm");
  sp<MappedRegion> local_map =
      local_vmm->Map(file, AccessRights::kReadWrite).take_value();
  Buffer out(kPageSize);
  SPRINGFS_CHECK_OK(local_map->Read(0, out.mutable_span()));  // fault once
  network.ResetStats();
  server->ResetStats();
  Measurement local_read = TimeOp(
      [&] { SPRINGFS_CHECK_OK(local_map->Read(0, out.mutable_span())); },
      10000);
  uint64_t local_msgs = metrics::StatValue(network, "messages");
  uint64_t local_page_ins = metrics::StatValue(*server, "remote_page_ins");
  std::printf("local mapped 4KB read : %8.2f us/op, %llu network msgs, "
              "%llu DFS page-ins\n",
              local_read.mean_us, static_cast<unsigned long long>(local_msgs),
              static_cast<unsigned long long>(local_page_ins));

  // Direct SFS access for comparison.
  sp<File> direct = ResolveAs<File>(sfs.root, "f", creds).take_value();
  sp<MappedRegion> direct_map =
      local_vmm->Map(direct, AccessRights::kReadOnly).take_value();
  Measurement direct_read = TimeOp(
      [&] { SPRINGFS_CHECK_OK(direct_map->Read(0, out.mutable_span())); },
      10000);
  bool same_channel = local_map->channel_id() == direct_map->channel_id();
  std::printf("direct SFS 4KB read   : %8.2f us/op (same channel: %s)\n",
              direct_read.mean_us, same_channel ? "yes" : "NO!");

  // 2. Remote access pays the protocol.
  sp<File> remote = ResolveAs<File>(client, "f", creds).take_value();
  Measurement remote_read = TimeOp(
      [&] { (void)*remote->Read(0, out.mutable_span()); }, 200);
  Measurement remote_stat = TimeOp([&] { (void)*remote->Stat(); }, 200);
  std::printf("remote 4KB read       : %8.2f us/op (>= 2x latency = %llu us)\n",
              remote_read.mean_us,
              static_cast<unsigned long long>(2 * kLatencyNs / 1000));
  std::printf("remote fstat          : %8.2f us/op\n", remote_stat.mean_us);

  // Remote *mapped* access amortizes: after the fault, reads are local.
  sp<Vmm> remote_vmm = Vmm::Create(client_node->domain(), "remote-vmm");
  sp<MappedRegion> remote_map =
      remote_vmm->Map(remote, AccessRights::kReadOnly).take_value();
  // Fault across the network once.
  SPRINGFS_CHECK_OK(remote_map->Read(0, out.mutable_span()));
  Measurement remote_mapped = TimeOp(
      [&] { SPRINGFS_CHECK_OK(remote_map->Read(0, out.mutable_span())); },
      10000);
  std::printf("remote mapped re-read : %8.2f us/op (served by client VMM)\n",
              remote_mapped.mean_us);

  // 3. Coherency ping-pong: local writer vs remote reader.
  network.ResetStats();
  server->ResetStats();
  Measurement pingpong = TimeOp(
      [&] {
        (void)*direct->Write(0, page.span());  // local write
        // Remote re-read.
        SPRINGFS_CHECK_OK(remote_map->Read(0, out.mutable_span()));
      },
      100);
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*server);
  std::printf("coherent ping-pong    : %8.2f us/round (%llu callbacks, "
              "%llu lower flushes)\n",
              pingpong.mean_us,
              static_cast<unsigned long long>(stats["callbacks_sent"]),
              static_cast<unsigned long long>(stats["lower_flushes"]));
  bench::PrintRule(72);
  std::printf("shape: local path unaffected by DFS; remote ops pay 2x "
              "latency; sharing costs\nper-transition callbacks only\n");

  bool ok = true;
  auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };
  check(local_msgs == 0, "local mapped reads send no network messages");
  check(local_page_ins == 0, "local mapped reads cause no DFS page-ins");
  check(same_channel, "local_map and direct_map share one cache channel");
  check(remote_read.mean_us * 1000 >= 2.0 * kLatencyNs,
        "a remote 4KB read costs >= 2x the one-way latency");
  return ok ? 0 : 1;
}
