// Quickstart: build Spring SFS (coherency layer on disk layer, Figure 10),
// create files through the naming interface, do coherent mapped and
// file-interface I/O, and inspect the stack.
//
//   ./build/examples/quickstart

#include <cstdio>
#include <map>
#include <string>

#include "src/layers/sfs/sfs.h"
#include "src/support/logging.h"
#include "src/vmm/vmm.h"

using namespace springfs;

int main() {
  Credentials creds = Credentials::System();

  // 1. A simulated disk and an SFS on top of it (two layers, one domain).
  MemBlockDevice device(ufs::kBlockSize, 8192);
  SfsOptions options;
  options.placement = SfsPlacement::kOneDomain;
  Result<Sfs> sfs_result = CreateSfs(&device, options);
  if (!sfs_result.ok()) {
    std::fprintf(stderr, "CreateSfs: %s\n",
                 sfs_result.status().ToString().c_str());
    return 1;
  }
  Sfs sfs = sfs_result.take_value();
  FsInfo info = *sfs.root->GetFsInfo();
  std::printf("mounted %s (stack depth %u, %llu free blocks)\n",
              info.type.c_str(), info.stack_depth,
              static_cast<unsigned long long>(info.free_blocks));

  // 2. The file system IS a naming context: create a directory tree and a
  //    file through it.
  sfs.root->CreateContext(*Name::Parse("docs"), creds).take_value();
  sp<File> file = sfs.root->CreateFile(*Name::Parse("docs/readme"), creds)
                      .take_value();
  Buffer text(std::string("Extensible file systems in Spring, reproduced.\n"));
  file->Write(0, text.span()).take_value();
  std::printf("wrote %zu bytes to docs/readme\n", text.size());

  // 3. A client maps the file through a VMM: the bind operation sets up the
  //    pager-cache channel, faults pull pages, and the mapping stays
  //    coherent with file-interface writes.
  sp<Domain> client_domain = Domain::Create("client");
  sp<Vmm> vmm = Vmm::Create(client_domain, "client-vmm");
  sp<MappedRegion> region =
      vmm->Map(file, AccessRights::kReadWrite).take_value();
  Buffer mapped(text.size());
  SPRINGFS_CHECK_OK(region->Read(0, mapped.mutable_span()));
  std::printf("mapped read : %s", mapped.ToString().c_str());

  Buffer patch(std::string("EXTENSIBLE"));
  SPRINGFS_CHECK_OK(region->Write(0, patch.span()));
  Buffer through_file(text.size());
  file->Read(0, through_file.mutable_span()).take_value();
  std::printf("after mapped write, file read: %s",
              through_file.ToString().c_str());

  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*vmm);
  std::printf("vmm: %llu faults, %llu hits, %llu deny-writes received\n",
              static_cast<unsigned long long>(stats["faults"]),
              static_cast<unsigned long long>(stats["page_hits"]),
              static_cast<unsigned long long>(stats["deny_writes"]));

  // 4. Push everything to the simulated disk and show it survived.
  SPRINGFS_CHECK_OK(sfs.root->SyncFs());
  FileAttributes attrs = *file->Stat();
  std::printf("docs/readme: %llu bytes, nlink %u\n",
              static_cast<unsigned long long>(attrs.size), attrs.nlink);
  std::printf("ok\n");
  return 0;
}
