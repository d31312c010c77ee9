// Arbitrary composition (paper Figure 3): CRYPTFS stacked on MIRRORFS
// stacked on TWO independent SFS instances. Writes are encrypted, then
// replicated; a disk failure is survived transparently and the dead replica
// is resilvered when it returns. POSIX-style access drives the whole stack.
//
//   ./build/examples/encrypted_mirror

#include <cstdio>
#include <map>
#include <string>

#include "src/blockdev/decorators.h"
#include "src/layers/cryptfs/crypt_layer.h"
#include "src/layers/mirrorfs/mirror_layer.h"
#include "src/layers/sfs/sfs.h"
#include "src/posix/posix_shim.h"
#include "src/support/logging.h"

using namespace springfs;

int main() {
  Credentials creds = Credentials::System();

  // Two disks, each with fault injection, each carrying its own SFS.
  FaultyBlockDevice* disks[2];
  std::unique_ptr<BlockDevice> owners[2];
  Sfs replicas[2];
  for (int i = 0; i < 2; ++i) {
    disks[i] = new FaultyBlockDevice(
        std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192));
    owners[i].reset(disks[i]);
    replicas[i] = CreateSfs(owners[i].get(), SfsOptions{}).take_value();
  }

  // MIRRORFS on both, CRYPTFS on the mirror.
  sp<MirrorLayer> mirror = MirrorLayer::Create(Domain::Create("mirror"));
  SPRINGFS_CHECK_OK(mirror->StackOn(replicas[0].root));
  SPRINGFS_CHECK_OK(mirror->StackOn(replicas[1].root));
  sp<CryptLayer> crypt =
      CryptLayer::Create(Domain::Create("crypt"), "correct horse battery");
  SPRINGFS_CHECK_OK(crypt->StackOn(mirror));
  std::printf("stack: %s\n", crypt->GetFsInfo()->type.c_str());

  // Drive it with the POSIX shim.
  posix::Process proc(crypt);
  int fd = proc.Open("secrets.db", posix::kRdWr | posix::kCreate).take_value();
  Buffer secret(std::string("the launch code is 0000"));
  proc.Write(fd, secret.span()).take_value();
  SPRINGFS_CHECK_OK(proc.Fsync(fd));

  // Ciphertext on both replicas, plaintext nowhere below the crypt layer.
  for (int i = 0; i < 2; ++i) {
    sp<File> raw =
        ResolveAs<File>(replicas[i].root, "secrets.db", creds).take_value();
    Buffer bytes(secret.size());
    raw->Read(0, bytes.mutable_span()).take_value();
    std::printf("replica %d raw bytes: %s\n", i,
                HexDump(bytes.span(), 16).c_str());
  }

  // Disk 0 dies mid-flight; reads fail over, writes degrade gracefully.
  disks[0]->set_broken(true);
  std::printf("-- replica 0's disk died --\n");
  proc.Lseek(fd, 0, posix::Whence::kSet).take_value();
  Buffer still(secret.size());
  proc.Read(fd, still.mutable_span()).take_value();
  std::printf("read with dead disk : '%s'\n", still.ToString().c_str());
  Buffer update(std::string("the launch code is 8675"));
  proc.Lseek(fd, 0, posix::Whence::kSet).take_value();
  proc.Write(fd, update.span()).take_value();
  SPRINGFS_CHECK_OK(proc.Fsync(fd));

  // The disk comes back holding stale data; resilver repairs it.
  disks[0]->set_broken(false);
  std::printf("-- replica 0's disk repaired; resilvering --\n");
  SPRINGFS_CHECK_OK(mirror->Resilver(*Name::Parse("secrets.db"), creds));
  SPRINGFS_CHECK_OK(mirror->SyncFs());

  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*mirror);
  std::printf("mirror: %llu fanouts, %llu replica write failures, "
              "%llu resilvered\n",
              static_cast<unsigned long long>(stats["write_fanouts"]),
              static_cast<unsigned long long>(
                  stats["replica_write_failures"]),
              static_cast<unsigned long long>(stats["resilvered_files"]));

  // Final read through the full stack.
  proc.Lseek(fd, 0, posix::Whence::kSet).take_value();
  proc.Read(fd, still.mutable_span()).take_value();
  std::printf("final content       : '%s'\n", still.ToString().c_str());
  std::printf("ok\n");
  return 0;
}
