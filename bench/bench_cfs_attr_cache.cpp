// Section 6.2 — CFS, the attribute-caching interposer for remote files.
//
// Measures the paper's reason for CFS to exist: without it "all file
// operations go to the remote DFS"; with it, attribute reads are cached on
// the client node (invalidated by server callbacks) and data reads come
// from the local VMM. The bench sweeps the network latency and reports
// stat/read costs with and without CFS.
//
// Exits non-zero unless the verdicts hold at every latency: after the first
// touch, CFS Stat and Read add nothing to the client's calls_sent (a count,
// not a time), the same holds for a file resolved through a CFS
// sub-directory context, and another writer's length change is observed
// through CFS (the invalidation callback keeps the cache honest).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/layers/cfs/cfs_layer.h"
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
  bool ok = true;
  auto check = [&](bool cond, uint64_t latency_us, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL at %llu us: %s\n",
                   static_cast<unsigned long long>(latency_us), what);
      ok = false;
    }
  };

  std::printf("CFS attribute caching vs. plain remote access (us/op)\n");
  bench::PrintRule(86);
  std::printf("%-14s %12s %12s %12s %12s %10s\n", "latency (us)",
              "stat plain", "stat CFS", "read plain", "read CFS",
              "invals");
  bench::PrintRule(86);

  for (uint64_t latency_us : {20, 100, 500}) {
    net::Network network(&DefaultClock(), latency_us * 1000);
    sp<net::Node> server_node = network.AddNode("server");
    sp<net::Node> client_node = network.AddNode("client");

    MemBlockDevice device(ufs::kBlockSize, 8192);
    Sfs sfs = CreateSfs(&device, SfsOptions{}).take_value();
    sp<DfsServer> server =
        DfsServer::Create(server_node, &network, "dfs", sfs.root)
            .take_value();
    sp<DfsClient> client =
        DfsClient::Mount(client_node, &network, "server", "dfs").take_value();
    sp<Vmm> vmm = Vmm::Create(client_node->domain(), "client-vmm");
    sp<CfsLayer> cfs = CfsLayer::Create(client_node->domain(), client, vmm);
    auto calls_sent = [&] { return metrics::StatValue(*client, "calls_sent"); };

    sp<File> plain = client->CreateFile(*Name::Parse("f"), creds).take_value();
    Rng rng(4);
    Buffer page = rng.RandomBuffer(kPageSize);
    plain->Write(0, page.span()).take_value();
    sp<File> cached = ResolveAs<File>(cfs, "f", creds).take_value();

    Buffer out(kPageSize);
    // First touch: binds the file and fills the attribute and page caches.
    SPRINGFS_CHECK_OK(cached->Stat().status());
    SPRINGFS_CHECK_OK(cached->Read(0, out.mutable_span()).status());
    uint64_t iters = latency_us >= 500 ? 50 : 200;
    Measurement stat_plain = TimeOp([&] { (void)*plain->Stat(); }, iters);
    Measurement read_plain =
        TimeOp([&] { (void)*plain->Read(0, out.mutable_span()); }, iters);
    uint64_t calls_before = calls_sent();
    Measurement stat_cfs = TimeOp([&] { (void)*cached->Stat(); }, 10000);
    Measurement read_cfs =
        TimeOp([&] { (void)*cached->Read(0, out.mutable_span()); }, 10000);
    check(calls_sent() == calls_before, latency_us,
          "CFS stat/read after the first touch add 0 calls_sent");

    // The same through a sub-directory context of CFS.
    SPRINGFS_CHECK_OK(client->CreateContext(*Name::Parse("d"), creds).status());
    sp<File> nested =
        client->CreateFile(*Name::Parse("d/f"), creds).take_value();
    nested->Write(0, page.span()).take_value();
    sp<Context> dir = ResolveAs<Context>(cfs, "d", creds).take_value();
    sp<File> via_dir = ResolveAs<File>(dir, "f", creds).take_value();
    SPRINGFS_CHECK_OK(via_dir->Stat().status());
    SPRINGFS_CHECK_OK(via_dir->Read(0, out.mutable_span()).status());
    calls_before = calls_sent();
    for (int i = 0; i < 100; ++i) {
      SPRINGFS_CHECK_OK(via_dir->Stat().status());
      SPRINGFS_CHECK_OK(via_dir->Read(0, out.mutable_span()).status());
    }
    check(calls_sent() == calls_before, latency_us,
          "CFS stat/read through a sub-directory add 0 calls_sent");

    // Exercise the invalidation path once: a change made through the plain
    // remote view must be observed through CFS.
    sp<File> other = ResolveAs<File>(client, "f", creds).take_value();
    SPRINGFS_CHECK_OK(other->SetLength(2 * kPageSize));
    uint64_t observed_size = cached->Stat()->size;
    bool fresh = observed_size == 2 * kPageSize;
    check(fresh, latency_us, "the length change is observed through CFS");

    std::printf("%-14llu %12.2f %12.2f %12.2f %12.2f %7llu %s\n",
                static_cast<unsigned long long>(latency_us),
                stat_plain.mean_us, stat_cfs.mean_us, read_plain.mean_us,
                read_cfs.mean_us,
                static_cast<unsigned long long>(
                    metrics::StatValue(*cfs, "attr_invalidations")),
                fresh ? "" : "STALE!");
  }
  bench::PrintRule(86);
  std::printf("shape: plain remote stat/read scale with 2x latency; CFS "
              "makes them latency-\nindependent after the first touch, while "
              "callbacks keep the cache honest\n");
  return ok ? 0 : 1;
}
