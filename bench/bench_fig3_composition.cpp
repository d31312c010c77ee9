// Figure 3 — implementation vs. administrative decisions: an arbitrary
// composition graph. fs1/fs2 are base file systems on storage devices; fs3
// (a compression layer) stacks on one of them; fs4 (a mirroring layer)
// stacks on TWO of them.
//
//        fs3 (compfs)      fs4 (mirrorfs)
//           |               /        \  (two replicas)
//          fs1 (sfs)     fs1 (sfs)  fs2 (sfs)
//
// The bench builds exactly that graph and reports per-layer operation
// costs, the mirror's write fan-out, and read failover cost when fs1's
// device dies. The base file systems cache no data in their coherency
// layers, so a read through fs4 reaches fs1's device and sees it die.
//
// Self-checks (the exit code): fs1, fs3 and fs4 each read back the page
// they wrote; fs3 stores the compressible page in fewer bytes than it was
// given; after SyncFs both replicas of fs4's `ha` hold the same bytes; and
// with fs1's device broken, reads of `ha` through fs4 still return the
// written bytes by failing over to fs2.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "src/blockdev/decorators.h"
#include "src/layers/compfs/comp_layer.h"
#include "src/layers/mirrorfs/mirror_layer.h"
#include "src/layers/sfs/sfs.h"
#include "src/support/logging.h"
#include "src/support/rng.h"

using namespace springfs;
using bench::Measurement;
using bench::TimeOp;

int main() {
  Credentials creds = Credentials::System();

  // Two base file systems on two fault-injectable devices.
  FaultyBlockDevice* disks[2];
  std::unique_ptr<BlockDevice> owners[2];
  Sfs fs[2];
  for (int i = 0; i < 2; ++i) {
    disks[i] = new FaultyBlockDevice(
        std::make_unique<MemBlockDevice>(ufs::kBlockSize, 16384));
    owners[i].reset(disks[i]);
    SfsOptions options;
    options.coherency.cache_data = false;
    fs[i] = CreateSfs(owners[i].get(), options).take_value();
  }

  // fs3 = COMPFS on fs1; fs4 = MIRRORFS on fs1 + fs2.
  sp<CompLayer> fs3 = CompLayer::Create(Domain::Create("fs3"));
  SPRINGFS_CHECK_OK(fs3->StackOn(fs[0].root));
  sp<MirrorLayer> fs4 = MirrorLayer::Create(Domain::Create("fs4"));
  SPRINGFS_CHECK_OK(fs4->StackOn(fs[0].root));
  SPRINGFS_CHECK_OK(fs4->StackOn(fs[1].root));

  std::printf("Figure 3 composition graph\n");
  std::printf("  fs3: %s\n", fs3->GetFsInfo()->type.c_str());
  std::printf("  fs4: %s\n", fs4->GetFsInfo()->type.c_str());
  bench::PrintRule(72);

  Rng rng(5);
  Buffer page = rng.CompressibleBuffer(kPageSize);
  Buffer out(kPageSize);

  // Per-layer 4KB costs.
  struct Row {
    const char* name;
    sp<StackableFs> target;
  };
  Row rows[] = {
      {"fs1 (sfs)", fs[0].root},
      {"fs3 (compfs on fs1)", fs3},
      {"fs4 (mirror fs1+fs2)", fs4},
  };
  bool ok = true;
  auto check = [&](bool cond, const std::string& what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
      ok = false;
    }
  };
  // One 4KB read of `file` returns the page written.
  auto reads_page = [&](const sp<File>& file) {
    std::fill(out.data(), out.data() + out.size(), uint8_t{0});
    Result<size_t> n = file->Read(0, out.mutable_span());
    return n.ok() && *n == kPageSize && out == page;
  };

  std::printf("%-24s %14s %14s\n", "layer", "4KB write", "4KB read");
  bench::PrintRule(72);
  for (auto& row : rows) {
    std::string fname = std::string("bench_") + row.name[2];
    sp<File> file =
        row.target->CreateFile(Name::Single(fname), creds).take_value();
    file->Write(0, page.span()).take_value();
    Measurement write =
        TimeOp([&] { (void)*file->Write(0, page.span()); }, 2000);
    Measurement read =
        TimeOp([&] { (void)*file->Read(0, out.mutable_span()); }, 2000);
    std::printf("%-24s %12.2fus %12.2fus\n", row.name, write.mean_us,
                read.mean_us);
    check(reads_page(file), std::string(row.name) + " reads back its page");
  }
  bench::PrintRule(72);

  // fs3 compresses: one synced compressible page costs fewer stored bytes.
  uint64_t stored_before = metrics::StatValue(*fs3, "bytes_stored");
  sp<File> packed = fs3->CreateFile(*Name::Parse("packed"), creds).take_value();
  packed->Write(0, page.span()).take_value();
  SPRINGFS_CHECK_OK(packed->SyncFile());
  uint64_t stored = metrics::StatValue(*fs3, "bytes_stored") - stored_before;
  std::printf("fs3 stored a compressible 4KB page in %llu bytes\n",
              static_cast<unsigned long long>(stored));
  check(stored > 0 && stored < kPageSize,
        "fs3 stores the compressible page in fewer bytes than given");

  // Mirror failover: fs1's device dies; reads fail over to fs2.
  sp<File> ha = fs4->CreateFile(*Name::Parse("ha"), creds).take_value();
  ha->Write(0, page.span()).take_value();
  SPRINGFS_CHECK_OK(fs4->SyncFs());
  for (int i = 0; i < 2; ++i) {
    sp<File> replica = ResolveAs<File>(fs[i].root, "ha", creds).take_value();
    check(reads_page(replica),
          "replica " + std::to_string(i) + " of ha holds the written page");
  }
  Measurement healthy =
      TimeOp([&] { (void)*ha->Read(0, out.mutable_span()); }, 2000);
  disks[0]->set_broken(true);
  sp<File> ha2 = ResolveAs<File>(fs4, "ha", creds).take_value();
  Measurement degraded =
      TimeOp([&] { (void)*ha2->Read(0, out.mutable_span()); }, 2000);
  check(reads_page(ha2), "ha reads back its page with fs1's device dead");
  disks[0]->set_broken(false);
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*fs4);
  check(stats["reads_failover"] > 0,
        "reads of ha fail over to fs2 with fs1's device dead");
  std::printf("mirror read, both replicas healthy : %9.2f us/op\n",
              healthy.mean_us);
  std::printf("mirror read, primary dead (failover): %8.2f us/op\n",
              degraded.mean_us);
  std::printf("mirror: %llu write fan-outs, %llu failover reads, %llu "
              "replica write failures\n",
              static_cast<unsigned long long>(stats["write_fanouts"]),
              static_cast<unsigned long long>(stats["reads_failover"]),
              static_cast<unsigned long long>(
                  stats["replica_write_failures"]));
  std::printf("shape: composition is free-form; the mirror doubles write "
              "work and survives a\ndead replica with a bounded failover "
              "penalty\n");
  return ok ? 0 : 1;
}
