// Compression stacking (paper section 4.2.1, Figures 5/6): configure
// COMPFS on SFS using the section 4.4 creator recipe, store compressible
// data, and measure the disk-space savings; then show the coherent (Fig. 6)
// mode reacting to direct writes on the underlying file.
//
//   ./build/examples/compression_stack

#include <cstdio>
#include <map>
#include <string>

#include "src/fs/registry.h"
#include "src/layers/compfs/comp_layer.h"
#include "src/layers/sfs/sfs.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/vmm/vmm.h"

using namespace springfs;

int main() {
  Credentials creds = Credentials::System();
  sp<Domain> admin_domain = Domain::Create("admin");

  // The system name space with the well-known /fs_creators and /fs places.
  sp<MemContext> root = MemContext::Create(admin_domain);
  SPRINGFS_CHECK_OK(EnsureWellKnownContexts(root, creds, admin_domain));

  // A base file system, exported at /fs/sfs0 (like mounting a partition).
  MemBlockDevice device(ufs::kBlockSize, 16384);
  Sfs sfs = CreateSfs(&device, SfsOptions{}).take_value();
  SPRINGFS_CHECK_OK(ExportFs(root, "sfs0", sfs.root, creds));

  // Register the COMPFS creator at /fs_creators/compfs_creator.
  sp<Domain> compfs_domain = Domain::Create("compfs");
  SPRINGFS_CHECK_OK(RegisterCreator(
      root,
      std::make_shared<LambdaFsCreator>(
          "compfs_creator",
          [&]() -> Result<sp<StackableFs>> {
            return sp<StackableFs>(CompLayer::Create(compfs_domain));
          }),
      creds));

  // Section 4.4's recipe, driven declaratively: look the creator up,
  // create, stack_on, bind into the name space.
  StackSpec spec;
  spec.base_fs = "sfs0";
  spec.layers = {"compfs_creator"};
  spec.export_as = "docs";
  sp<StackableFs> compfs = BuildStack(root, spec, creds).take_value();
  std::printf("stack: %s\n", compfs->GetFsInfo()->type.c_str());

  // Store very compressible data through the stack.
  sp<StackableFs> docs =
      ResolveAs<StackableFs>(root, "fs/docs", creds).take_value();
  sp<File> file = docs->CreateFile(*Name::Parse("corpus"), creds).take_value();
  Rng rng(2026);
  Buffer data = rng.CompressibleBuffer(64 * kPageSize);
  file->Write(0, data.span()).take_value();
  SPRINGFS_CHECK_OK(file->SyncFile());

  // Compare logical size vs. what the underlying SFS actually stores.
  sp<File> under = ResolveAs<File>(sfs.root, "corpus", creds).take_value();
  uint64_t logical = file->Stat()->size;
  uint64_t stored = under->Stat()->size;
  std::printf("logical size : %8llu bytes\n",
              static_cast<unsigned long long>(logical));
  std::printf("stored size  : %8llu bytes (%.1f%% of logical)\n",
              static_cast<unsigned long long>(stored),
              100.0 * static_cast<double>(stored) /
                  static_cast<double>(logical));

  // Round-trip check.
  Buffer out(data.size());
  file->Read(0, out.mutable_span()).take_value();
  std::printf("round trip   : %s\n", out == data ? "intact" : "CORRUPTED!");

  // Figure 6 coherence: a direct write to the underlying SFS file triggers
  // a coherency callback that invalidates COMPFS's decompressed cache.
  sp<CompLayer> layer = narrow<CompLayer>(compfs);
  uint64_t invalidations_before =
      metrics::StatValue(*layer, "lower_invalidations");
  sp<Domain> node = Domain::Create("client");
  sp<Vmm> vmm = Vmm::Create(node, "vmm");
  sp<MappedRegion> region =
      vmm->Map(file, AccessRights::kReadOnly).take_value();
  Buffer probe(16);
  SPRINGFS_CHECK_OK(region->Read(0, probe.mutable_span()));
  Buffer junk(std::string("direct write to the compressed image"));
  under->Write(0, junk.span()).take_value();
  std::printf("figure 6     : %llu -> %llu lower-layer invalidations after a "
              "direct underlying write\n",
              static_cast<unsigned long long>(invalidations_before),
              static_cast<unsigned long long>(
                  metrics::StatValue(*layer, "lower_invalidations")));

  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*layer);
  std::printf("compfs stats : %llu blocks compressed, %llu raw, "
              "%llu bytes logical -> %llu stored\n",
              static_cast<unsigned long long>(stats["blocks_compressed"]),
              static_cast<unsigned long long>(stats["blocks_stored_raw"]),
              static_cast<unsigned long long>(stats["bytes_logical"]),
              static_cast<unsigned long long>(stats["bytes_stored"]));
  std::printf("ok\n");
  return 0;
}
