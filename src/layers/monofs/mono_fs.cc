#include "src/layers/monofs/mono_fs.h"

#include <algorithm>

#include "src/support/logging.h"

namespace springfs {
namespace {

FileKind KindOf(ufs::FileType type) {
  switch (type) {
    case ufs::FileType::kDirectory:
      return FileKind::kDirectory;
    case ufs::FileType::kSymlink:
      return FileKind::kSymlink;
    default:
      return FileKind::kRegular;
  }
}

}  // namespace

Result<std::unique_ptr<MonoFs>> MonoFs::Format(BlockDevice* device,
                                               Clock* clock) {
  std::unique_ptr<MonoFs> fs(new MonoFs(device, clock));
  ASSIGN_OR_RETURN(fs->ufs_, ufs::Ufs::Format(device, clock));
  return fs;
}

Result<std::unique_ptr<MonoFs>> MonoFs::Mount(BlockDevice* device,
                                              Clock* clock) {
  std::unique_ptr<MonoFs> fs(new MonoFs(device, clock));
  ASSIGN_OR_RETURN(fs->ufs_, ufs::Ufs::Mount(device, clock));
  return fs;
}

MonoFs::MonoFs(BlockDevice* device, Clock* clock) : clock_(clock) {
  (void)device;
}

MonoFs::~MonoFs() {
  Status st = Sync();
  if (!st.ok()) {
    LOG_ERROR << "monofs unmount sync failed: " << st.ToString();
  }
}

Result<ufs::InodeNum> MonoFs::ResolvePath(const std::string& path,
                                          bool want_parent,
                                          std::string* leaf) {
  ASSIGN_OR_RETURN(Name name, Name::Parse(path));
  if (want_parent) {
    if (name.empty()) {
      return ErrInvalidArgument("path has no leaf");
    }
    if (leaf) {
      *leaf = name.back();
    }
    name = name.Parent();
  }
  ufs::InodeNum current = ufs::kRootInode;
  for (const std::string& component : name.components()) {
    ASSIGN_OR_RETURN(current, ufs_->Lookup(current, component));
  }
  return current;
}

Result<MonoFd> MonoFs::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto cached = name_cache_.find(path);
  if (cached != name_cache_.end()) {
    ++stats_.name_cache_hits;
    return MonoFd{cached->second};
  }
  ++stats_.name_cache_misses;
  ASSIGN_OR_RETURN(ufs::InodeNum ino,
                   ResolvePath(path, /*want_parent=*/false, nullptr));
  name_cache_[path] = ino;
  return MonoFd{ino};
}

Result<MonoFd> MonoFs::Create(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string leaf;
  ASSIGN_OR_RETURN(ufs::InodeNum dir,
                   ResolvePath(path, /*want_parent=*/true, &leaf));
  ASSIGN_OR_RETURN(ufs::InodeNum ino,
                   ufs_->Create(dir, leaf, ufs::FileType::kRegular));
  name_cache_[path] = ino;
  size_cache_[ino] = 0;
  return MonoFd{ino};
}

Status MonoFs::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string leaf;
  ASSIGN_OR_RETURN(ufs::InodeNum dir,
                   ResolvePath(path, /*want_parent=*/true, &leaf));
  ASSIGN_OR_RETURN(ufs::InodeNum ino, ufs_->Lookup(dir, leaf));
  RETURN_IF_ERROR(ufs_->Remove(dir, leaf));
  name_cache_.erase(path);
  size_cache_.erase(ino);
  for (auto it = buffer_cache_.begin(); it != buffer_cache_.end();) {
    it = it->first.first == ino ? buffer_cache_.erase(it) : std::next(it);
  }
  return Status::Ok();
}

Status MonoFs::Mkdir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string leaf;
  ASSIGN_OR_RETURN(ufs::InodeNum dir,
                   ResolvePath(path, /*want_parent=*/true, &leaf));
  return ufs_->Create(dir, leaf, ufs::FileType::kDirectory).status();
}

Result<size_t> MonoFs::Read(MonoFd fd, uint64_t offset, MutableByteSpan out) {
  if (!fd.valid()) {
    return ErrInvalidArgument("bad fd");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t size;
  auto size_it = size_cache_.find(fd.ino);
  if (size_it != size_cache_.end()) {
    size = size_it->second;
  } else {
    ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, ufs_->GetAttrs(fd.ino));
    size = attrs.size;
    size_cache_[fd.ino] = size;
  }
  if (offset >= size) {
    return size_t{0};
  }
  size_t to_read = std::min<uint64_t>(out.size(), size - offset);
  size_t done = 0;
  while (done < to_read) {
    uint64_t page = (offset + done) / ufs::kBlockSize;
    size_t in_page = (offset + done) % ufs::kBlockSize;
    size_t chunk = std::min<size_t>(ufs::kBlockSize - in_page,
                                    to_read - done);
    auto key = std::make_pair(fd.ino, page);
    auto it = buffer_cache_.find(key);
    if (it == buffer_cache_.end()) {
      ++stats_.buffer_cache_misses;
      CachedPage fresh;
      fresh.data = Buffer(ufs::kBlockSize);
      RETURN_IF_ERROR(
          ufs_->ReadFileBlock(fd.ino, page, fresh.data.mutable_span()));
      it = buffer_cache_.emplace(key, std::move(fresh)).first;
    } else {
      ++stats_.buffer_cache_hits;
    }
    std::memcpy(out.data() + done, it->second.data.data() + in_page, chunk);
    done += chunk;
  }
  return to_read;
}

Result<size_t> MonoFs::Write(MonoFd fd, uint64_t offset, ByteSpan data) {
  if (!fd.valid()) {
    return ErrInvalidArgument("bad fd");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t size;
  auto size_it = size_cache_.find(fd.ino);
  if (size_it != size_cache_.end()) {
    size = size_it->second;
  } else {
    ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, ufs_->GetAttrs(fd.ino));
    size = attrs.size;
  }
  size_t done = 0;
  while (done < data.size()) {
    uint64_t page = (offset + done) / ufs::kBlockSize;
    size_t in_page = (offset + done) % ufs::kBlockSize;
    size_t chunk = std::min<size_t>(ufs::kBlockSize - in_page,
                                    data.size() - done);
    auto key = std::make_pair(fd.ino, page);
    auto it = buffer_cache_.find(key);
    if (it == buffer_cache_.end()) {
      ++stats_.buffer_cache_misses;
      CachedPage fresh;
      fresh.data = Buffer(ufs::kBlockSize);
      if (in_page != 0 || chunk != ufs::kBlockSize) {
        RETURN_IF_ERROR(
            ufs_->ReadFileBlock(fd.ino, page, fresh.data.mutable_span()));
      }
      it = buffer_cache_.emplace(key, std::move(fresh)).first;
    } else {
      ++stats_.buffer_cache_hits;
    }
    std::memcpy(it->second.data.data() + in_page, data.data() + done, chunk);
    it->second.dirty = true;
    done += chunk;
  }
  size_cache_[fd.ino] = std::max<uint64_t>(size, offset + data.size());
  return data.size();
}

Status MonoFs::Truncate(MonoFd fd, uint64_t size) {
  if (!fd.valid()) {
    return ErrInvalidArgument("bad fd");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  RETURN_IF_ERROR(ufs_->Truncate(fd.ino, size));
  size_cache_[fd.ino] = size;
  uint64_t first_gone = (size + ufs::kBlockSize - 1) / ufs::kBlockSize;
  for (auto it = buffer_cache_.begin(); it != buffer_cache_.end();) {
    bool drop = it->first.first == fd.ino && it->first.second >= first_gone;
    it = drop ? buffer_cache_.erase(it) : std::next(it);
  }
  return Status::Ok();
}

Result<FileAttributes> MonoFs::Stat(MonoFd fd) {
  if (!fd.valid()) {
    return ErrInvalidArgument("bad fd");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, ufs_->GetAttrs(fd.ino));
  FileAttributes out;
  out.kind = KindOf(attrs.type);
  out.size = attrs.size;
  auto size_it = size_cache_.find(fd.ino);
  if (size_it != size_cache_.end()) {
    out.size = size_it->second;
  }
  out.nlink = attrs.nlink;
  out.atime_ns = attrs.atime_ns;
  out.mtime_ns = attrs.mtime_ns;
  return out;
}

Status MonoFs::WriteBackLocked() {
  for (auto& [key, page] : buffer_cache_) {
    if (!page.dirty) {
      continue;
    }
    RETURN_IF_ERROR(
        ufs_->WriteFileBlock(key.first, key.second, page.data.span()));
    page.dirty = false;
  }
  for (const auto& [ino, size] : size_cache_) {
    RETURN_IF_ERROR(ufs_->SetSize(ino, size));
  }
  return Status::Ok();
}

Status MonoFs::Commit() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ufs_) {
    return Status::Ok();
  }
  RETURN_IF_ERROR(WriteBackLocked());
  return ufs_->Commit();
}

Status MonoFs::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ufs_) {
    return Status::Ok();
  }
  RETURN_IF_ERROR(WriteBackLocked());
  return ufs_->Sync();
}

MonoFsStats MonoFs::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace springfs
