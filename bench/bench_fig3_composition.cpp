// Figure 3 — implementation vs. administrative decisions: an arbitrary
// composition graph. fs1/fs2 are base file systems on storage devices; fs3
// (a compression layer) stacks on one of them; fs4 (a mirroring layer)
// stacks on TWO of them.
//
//        fs3 (compfs)      fs4 (mirrorfs)
//           |               /        \
//          fs1 (sfs)     fs1 (sfs)  fs2 (sfs)
//
// The bench builds exactly that graph and reports per-layer operation
// costs, the mirror's write fan-out, and read failover cost when fs1's
// device dies.

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
    fs[i] = CreateSfs(owners[i].get(), SfsOptions{}).take_value();
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
  }
  bench::PrintRule(72);

  // Mirror failover: fs1's device dies; reads fail over to fs2.
  sp<File> ha = fs4->CreateFile(*Name::Parse("ha"), creds).take_value();
  ha->Write(0, page.span()).take_value();
  SPRINGFS_CHECK_OK(fs4->SyncFs());
  Measurement healthy =
      TimeOp([&] { (void)*ha->Read(0, out.mutable_span()); }, 2000);
  disks[0]->set_broken(true);
  sp<File> ha2 = ResolveAs<File>(fs4, "ha", creds).take_value();
  Measurement degraded =
      TimeOp([&] { (void)*ha2->Read(0, out.mutable_span()); }, 2000);
  disks[0]->set_broken(false);
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*fs4);
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
  return 0;
}
