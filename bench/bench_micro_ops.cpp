// Micro-benchmarks of the substrate primitives (google-benchmark).
//
// These are not paper tables; they calibrate the building blocks whose
// costs the paper tables are made of: object invocation (inline vs
// cross-domain), coherency-engine transitions, codec throughput, UFS block
// I/O, and the VMM fault path.

#include <benchmark/benchmark.h>

#include "src/codec/codec.h"
#include "src/coherency/engine.h"
#include "src/fs/mem_file.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/ufs/ufs.h"
#include "src/vmm/vmm.h"

namespace springfs {
namespace {

void BM_DomainCallInline(benchmark::State& state) {
  sp<Domain> domain = Domain::Create("bench");
  Domain::Scope scope(domain.get());
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(domain->Run([&] { return ++x; }));
  }
}
BENCHMARK(BM_DomainCallInline);

void BM_DomainCallCross(benchmark::State& state) {
  sp<Domain> domain = Domain::Create("bench");
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(domain->Run([&] { return ++x; }));
  }
}
BENCHMARK(BM_DomainCallCross);

void BM_EngineAcquireUncontended(benchmark::State& state) {
  CoherencyEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Acquire(1, Range{0, kPageSize}, AccessRights::kReadOnly));
  }
}
BENCHMARK(BM_EngineAcquireUncontended);

void BM_CodecCompress(benchmark::State& state, const char* name,
                      bool compressible) {
  const Codec* codec = CodecByName(name);
  Rng rng(1);
  Buffer data = compressible ? rng.CompressibleBuffer(kPageSize)
                             : rng.RandomBuffer(kPageSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Compress(data.span()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kPageSize);
}
BENCHMARK_CAPTURE(BM_CodecCompress, lz77_runs, "lz77", true);
BENCHMARK_CAPTURE(BM_CodecCompress, lz77_random, "lz77", false);
BENCHMARK_CAPTURE(BM_CodecCompress, rle_runs, "rle", true);

void BM_CodecDecompress(benchmark::State& state) {
  const Codec* codec = CodecByName("lz77");
  Rng rng(2);
  Buffer data = rng.CompressibleBuffer(kPageSize);
  Buffer compressed = codec->Compress(data.span());
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Decompress(compressed.span(), kPageSize));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kPageSize);
}
BENCHMARK(BM_CodecDecompress);

void BM_XteaCtrPage(benchmark::State& state) {
  XteaKey key = XteaKey::FromPassphrase("bench");
  Buffer page(kPageSize);
  for (auto _ : state) {
    XteaCtrApply(key, 0, page.mutable_span());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kPageSize);
}
BENCHMARK(BM_XteaCtrPage);

void BM_Crc32Page(benchmark::State& state) {
  Rng rng(3);
  Buffer page = rng.RandomBuffer(kPageSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(page.span()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kPageSize);
}
BENCHMARK(BM_Crc32Page);

void BM_UfsBlockWrite(benchmark::State& state) {
  MemBlockDevice device(ufs::kBlockSize, 8192);
  std::unique_ptr<ufs::Ufs> fs = ufs::Ufs::Format(&device).take_value();
  ufs::InodeNum ino =
      fs->Create(ufs::kRootInode, "f", ufs::FileType::kRegular).take_value();
  Rng rng(4);
  Buffer block = rng.RandomBuffer(ufs::kBlockSize);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs->WriteFileBlock(ino, i++ % 64, block.span()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          ufs::kBlockSize);
}
BENCHMARK(BM_UfsBlockWrite);

void BM_UfsLookup(benchmark::State& state) {
  MemBlockDevice device(ufs::kBlockSize, 8192);
  std::unique_ptr<ufs::Ufs> fs = ufs::Ufs::Format(&device).take_value();
  for (int i = 0; i < 64; ++i) {
    fs->Create(ufs::kRootInode, "file" + std::to_string(i),
               ufs::FileType::kRegular)
        .take_value();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs->Lookup(ufs::kRootInode, "file42"));
  }
}
BENCHMARK(BM_UfsLookup);

void BM_VmmCachedPageRead(benchmark::State& state) {
  sp<Domain> domain = Domain::Create("bench");
  sp<Vmm> vmm = Vmm::Create(domain, "vmm");
  sp<MemFile> file = MemFile::Create(domain);
  SPRINGFS_CHECK_OK(file->SetLength(kPageSize));
  sp<MappedRegion> region =
      vmm->Map(file, AccessRights::kReadOnly).take_value();
  Buffer out(kPageSize);
  SPRINGFS_CHECK_OK(region->Read(0, out.mutable_span()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(region->Read(0, out.mutable_span()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kPageSize);
}
BENCHMARK(BM_VmmCachedPageRead);

}  // namespace
}  // namespace springfs

BENCHMARK_MAIN();
