// MONOFS: a monolithic, direct-call file system — the Table 3 baseline.
//
// The paper compares Spring against SunOS 4.1.3: "The measurements show
// that Spring is from 2 to 7 times slower than SunOS. This is not
// surprising since SunOS is a production system and Spring is an untuned
// research prototype." We cannot run SunOS; what its numbers *mean* in the
// evaluation is "a tuned kernel with no object invocation, no typed
// interfaces, and no layering does these operations faster in absolute
// terms". MONOFS plays that role: the same UFS substrate and block device,
// driven through plain function calls with an integrated buffer cache,
// name cache, and attribute handling — no domains, no servants, no
// pager/cache channels.

#ifndef SPRINGFS_LAYERS_MONOFS_MONO_FS_H_
#define SPRINGFS_LAYERS_MONOFS_MONO_FS_H_

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/fs/file.h"
#include "src/ufs/ufs.h"

namespace springfs {

// An open-file handle; plain value, no object machinery.
struct MonoFd {
  ufs::InodeNum ino = ufs::kInvalidInode;

  bool valid() const { return ino != ufs::kInvalidInode; }
};

struct MonoFsStats {
  uint64_t name_cache_hits = 0;
  uint64_t name_cache_misses = 0;
  uint64_t buffer_cache_hits = 0;
  uint64_t buffer_cache_misses = 0;
};

class MonoFs {
 public:
  static Result<std::unique_ptr<MonoFs>> Format(
      BlockDevice* device, Clock* clock = &DefaultClock());
  static Result<std::unique_ptr<MonoFs>> Mount(
      BlockDevice* device, Clock* clock = &DefaultClock());

  ~MonoFs();

  // Path-based open with a name cache (the paper singles out name caching
  // as the remedy for open overhead, section 6.4).
  Result<MonoFd> Open(const std::string& path);
  Result<MonoFd> Create(const std::string& path);
  Status Remove(const std::string& path);
  Status Mkdir(const std::string& path);

  // Buffer-cached data access.
  Result<size_t> Read(MonoFd fd, uint64_t offset, MutableByteSpan out);
  Result<size_t> Write(MonoFd fd, uint64_t offset, ByteSpan data);
  Status Truncate(MonoFd fd, uint64_t size);

  Result<FileAttributes> Stat(MonoFd fd);

  // Writes dirty buffers and metadata back and commits them (fsync): the
  // data is durable, home locations are written at a later checkpoint.
  Status Commit();
  // Commit, then checkpoint: everything is at its home location.
  Status Sync();

  MonoFsStats stats() const;

 private:
  MonoFs(BlockDevice* device, Clock* clock);

  // Hands dirty buffers and cached sizes to the UFS (mutex_ held).
  Status WriteBackLocked();

  Result<ufs::InodeNum> ResolvePath(const std::string& path, bool want_parent,
                                    std::string* leaf);

  struct CachedPage {
    Buffer data;
    bool dirty = false;
  };

  std::unique_ptr<ufs::Ufs> ufs_;
  Clock* clock_;
  mutable std::mutex mutex_;
  std::map<std::string, ufs::InodeNum> name_cache_;
  std::map<std::pair<ufs::InodeNum, uint64_t>, CachedPage> buffer_cache_;
  // Sizes tracked here so cached writes need no inode round-trip.
  std::map<ufs::InodeNum, uint64_t> size_cache_;
  mutable MonoFsStats stats_;
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_MONOFS_MONO_FS_H_
