// Section 6.4 ablation — "three basic ways of configuring stacked file
// system layers that will provide performance equivalent to non-stacked
// implementations":
//   1. the layers can reside in the same domain;
//   2. data/attribute caching in the top layer eliminates stacking
//      overhead on cache hits;
//   3. a slow bottom device makes higher-layer overheads insignificant.
//
// This bench sweeps stack depth (N pass-through layers on SFS) against
// domain placement (shared vs per-layer domains), caching (top layer
// caches vs write-through), and device speed (RAM vs spinning model), and
// prints 4KB read cost for each cell.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/blockdev/decorators.h"
#include "src/layers/passfs/pass_layer.h"
#include "src/layers/sfs/sfs.h"
#include "src/support/logging.h"
#include "src/support/rng.h"

using namespace springfs;
using bench::Measurement;
using bench::TimeOp;

namespace {

struct Config {
  int depth;            // pass-through layers above SFS
  bool shared_domain;   // all layers in one domain?
  bool cache_top;       // top layer caches (others write through)
  bool slow_device;
};

Measurement RunConfig(const Config& config) {
  Credentials creds = Credentials::System();
  std::unique_ptr<BlockDevice> device;
  if (config.slow_device) {
    device = std::make_unique<LatencyBlockDevice>(
        std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192),
        DiskLatencyModel{});
  } else {
    device = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192);
  }
  SfsOptions sfs_options;
  sfs_options.placement = config.shared_domain ? SfsPlacement::kOneDomain
                                               : SfsPlacement::kTwoDomains;
  sfs_options.coherency.cache_data = false;  // caching decided by the top
  sfs_options.coherency.cache_attrs = false;
  Sfs sfs = CreateSfs(device.get(), sfs_options).take_value();

  sp<Domain> shared = sfs.disk_domain;
  sp<StackableFs> top = sfs.root;
  std::vector<sp<PassLayer>> layers;
  for (int i = 0; i < config.depth; ++i) {
    sp<Domain> domain = config.shared_domain
                            ? shared
                            : Domain::Create("pass" + std::to_string(i));
    CoherencyLayerOptions options;
    bool is_top = i == config.depth - 1;
    options.cache_data = config.cache_top && is_top;
    options.cache_attrs = config.cache_top && is_top;
    sp<PassLayer> layer = PassLayer::Create(domain, options);
    SPRINGFS_CHECK_OK(layer->StackOn(top));
    layers.push_back(layer);
    top = layer;
  }

  sp<File> file = top->CreateFile(*Name::Parse("bench"), creds).take_value();
  Rng rng(6);
  Buffer page = rng.RandomBuffer(kPageSize);
  file->Write(0, page.span()).take_value();
  Buffer out(kPageSize);
  uint64_t iters = config.slow_device && !config.cache_top ? 100 : 3000;
  return TimeOp([&] { (void)*file->Read(0, out.mutable_span()); }, iters);
}

}  // namespace

int main() {
  std::printf("Section 6.4 ablation: 4KB read (us/op) vs depth x placement "
              "x caching x device\n");
  bench::PrintRule(86);
  std::printf("%-6s %-9s %-7s | %12s %12s | %12s\n", "depth", "domains",
              "cache", "RAM device", "", "slow disk");
  bench::PrintRule(86);
  for (int depth : {0, 1, 2, 4}) {
    for (bool shared : {true, false}) {
      if (depth == 0 && !shared) {
        continue;  // no layers to place
      }
      for (bool cache_top : {true, false}) {
        if (depth == 0 && cache_top) {
          continue;  // nothing above SFS to cache
        }
        Config ram{depth, shared, cache_top, /*slow_device=*/false};
        Config slow{depth, shared, cache_top, /*slow_device=*/true};
        Measurement ram_result = RunConfig(ram);
        Measurement slow_result = RunConfig(slow);
        std::printf("%-6d %-9s %-7s | %10.2fus %12s | %10.2fus\n", depth,
                    shared ? "shared" : "per-layer",
                    cache_top ? "top" : "none", ram_result.mean_us, "",
                    slow_result.mean_us);
      }
    }
  }
  bench::PrintRule(86);
  std::printf("paper shape:\n"
              "  * per-layer domains cost ~a door call per layer per miss "
              "(visible on RAM device)\n"
              "  * caching at the top flattens depth entirely (rows with "
              "cache=top)\n"
              "  * the slow-disk column compresses all uncached configs "
              "toward the device time\n");
  return 0;
}
