// Distributed sharing (paper Figures 7/9): a DFS server exports an SFS to
// two client nodes over the simulated network; local and remote clients
// write and everyone observes a coherent file. CFS then absorbs a stat
// storm on one client.
//
//   ./build/examples/distributed_share

#include <cstdio>
#include <map>
#include <string>

#include "src/layers/cfs/cfs_layer.h"
#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/sfs/sfs.h"
#include "src/support/logging.h"
#include "src/vmm/vmm.h"

using namespace springfs;
using dfs::DfsClient;
using dfs::DfsServer;

int main() {
  Credentials creds = Credentials::System();
  net::Network network(&DefaultClock(), /*default_latency_ns=*/200'000);
  sp<net::Node> server_node = network.AddNode("fileserver");
  sp<net::Node> alice_node = network.AddNode("alice");
  sp<net::Node> bob_node = network.AddNode("bob");

  // Server: SFS exported over the DFS protocol.
  MemBlockDevice device(ufs::kBlockSize, 8192);
  Sfs sfs = CreateSfs(&device, SfsOptions{}).take_value();
  sp<DfsServer> server =
      DfsServer::Create(server_node, &network, "export", sfs.root)
          .take_value();

  // Two remote mounts.
  sp<DfsClient> alice =
      DfsClient::Mount(alice_node, &network, "fileserver", "export")
          .take_value();
  sp<DfsClient> bob =
      DfsClient::Mount(bob_node, &network, "fileserver", "export")
          .take_value();
  sp<Vmm> alice_vmm = Vmm::Create(alice_node->domain(), "alice-vmm");
  sp<Vmm> bob_vmm = Vmm::Create(bob_node->domain(), "bob-vmm");

  // Alice creates a shared file and maps it.
  sp<File> alice_file =
      alice->CreateFile(*Name::Parse("shared.txt"), creds).take_value();
  SPRINGFS_CHECK_OK(alice_file->SetLength(kPageSize));
  sp<MappedRegion> alice_map =
      alice_vmm->Map(alice_file, AccessRights::kReadWrite).take_value();
  Buffer hello(std::string("hello from alice"));
  SPRINGFS_CHECK_OK(alice_map->Write(0, hello.span()));
  std::printf("alice wrote through her mapping\n");

  // Bob maps the same file on another node and reads Alice's write —
  // the server's coherency protocol recalls the dirty page over the wire.
  sp<File> bob_file =
      ResolveAs<File>(bob, "shared.txt", creds).take_value();
  sp<MappedRegion> bob_map =
      bob_vmm->Map(bob_file, AccessRights::kReadWrite).take_value();
  Buffer seen(16);
  SPRINGFS_CHECK_OK(bob_map->Read(0, seen.mutable_span()));
  std::printf("bob reads     : '%s'\n", seen.ToString().c_str());

  // A local process on the server writes through SFS; both remotes see it.
  sp<File> local = ResolveAs<File>(sfs.root, "shared.txt", creds).take_value();
  Buffer local_text(std::string("server-side edit"));
  local->Write(0, local_text.span()).take_value();
  SPRINGFS_CHECK_OK(alice_map->Read(0, seen.mutable_span()));
  std::printf("alice now sees: '%s'\n", seen.ToString().c_str());

  std::map<std::string, uint64_t> sstats = metrics::CollectFrom(*server);
  std::printf("server: %llu remote page-ins, %llu callbacks sent, "
              "%llu lower-layer flushes\n",
              static_cast<unsigned long long>(sstats["remote_page_ins"]),
              static_cast<unsigned long long>(sstats["callbacks_sent"]),
              static_cast<unsigned long long>(sstats["lower_flushes"]));

  // CFS on Bob's node: the attribute cache absorbs a stat storm.
  sp<CfsLayer> cfs =
      CfsLayer::Create(bob_node->domain(), bob, bob_vmm);
  sp<File> cfs_file = ResolveAs<File>(cfs, "shared.txt", creds).take_value();
  cfs_file->Stat().take_value();  // one round trip
  uint64_t calls_before = metrics::StatValue(*bob, "calls_sent");
  for (int i = 0; i < 1000; ++i) {
    cfs_file->Stat().take_value();
  }
  std::printf("cfs: 1000 stats cost %llu network calls (cache hits: %llu)\n",
              static_cast<unsigned long long>(
                  metrics::StatValue(*bob, "calls_sent") - calls_before),
              static_cast<unsigned long long>(
                  metrics::StatValue(*cfs, "attr_cache_hits")));

  std::map<std::string, uint64_t> nstats = metrics::CollectFrom(network);
  std::printf("network: %llu messages, %llu bytes total\n",
              static_cast<unsigned long long>(nstats["messages"]),
              static_cast<unsigned long long>(nstats["bytes"]));
  std::printf("ok\n");
  return 0;
}
