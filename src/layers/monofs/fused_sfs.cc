#include "src/layers/monofs/fused_sfs.h"

#include "src/fs/prefix_context.h"

namespace springfs {

// A file served by the fused single-layer implementation. Mapped access
// (Bind) is not offered: the fused baseline exists for the Table 2
// open/read/write/stat comparison.
class FusedFile : public File, public Servant {
 public:
  FusedFile(sp<Domain> domain, sp<FusedSfs> layer, MonoFd fd)
      : Servant(std::move(domain)), layer_(std::move(layer)), fd_(fd) {}

  Result<sp<CacheRights>> Bind(const sp<CacheManager>&,
                               AccessRights) override {
    return ErrNotSupported("the fused baseline does not export pagers");
  }
  Result<Offset> GetLength() override {
    return InDomain([&]() -> Result<Offset> {
      ASSIGN_OR_RETURN(FileAttributes attrs, layer_->fs_->Stat(fd_));
      return Offset{attrs.size};
    });
  }
  Status SetLength(Offset length) override {
    return InDomain([&] { return layer_->fs_->Truncate(fd_, length); });
  }
  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return InDomain([&] { return layer_->fs_->Read(fd_, offset, out); });
  }
  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return InDomain([&] { return layer_->fs_->Write(fd_, offset, data); });
  }
  Result<FileAttributes> Stat() override {
    return InDomain([&] { return layer_->fs_->Stat(fd_); });
  }
  Status SetTimes(uint64_t, uint64_t) override {
    return ErrNotSupported("utimes on the fused baseline");
  }
  Status SyncFile() override {
    return InDomain([&] { return layer_->fs_->Commit(); });
  }

 private:
  sp<FusedSfs> layer_;
  MonoFd fd_;
};

Result<sp<FusedSfs>> FusedSfs::Format(sp<Domain> domain, BlockDevice* device,
                                      Clock* clock) {
  ASSIGN_OR_RETURN(std::unique_ptr<MonoFs> fs, MonoFs::Format(device, clock));
  return sp<FusedSfs>(new FusedSfs(std::move(domain), std::move(fs)));
}

FusedSfs::FusedSfs(sp<Domain> domain, std::unique_ptr<MonoFs> fs)
    : Servant(std::move(domain)), fs_(std::move(fs)) {}

Result<sp<Object>> FusedSfs::ObjectFor(const Name& name) {
  std::string path = name.ToString();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = open_files_.find(path);
    if (it != open_files_.end()) {
      if (sp<File> file = it->second.lock()) {
        return sp<Object>(file);
      }
    }
  }
  ASSIGN_OR_RETURN(MonoFd fd, fs_->Open(path));
  ASSIGN_OR_RETURN(FileAttributes attrs, fs_->Stat(fd));
  sp<FusedSfs> self = std::dynamic_pointer_cast<FusedSfs>(shared_from_this());
  if (attrs.kind == FileKind::kDirectory) {
    return sp<Object>(MakePrefixContext(std::move(self), name));
  }
  sp<File> file = std::make_shared<FusedFile>(domain(), self, fd);
  std::lock_guard<std::mutex> lock(mutex_);
  std::weak_ptr<File>& entry = open_files_[path];
  if (sp<File> raced = entry.lock()) {
    return sp<Object>(raced);
  }
  entry = file;
  return sp<Object>(file);
}

Result<sp<Object>> FusedSfs::Resolve(const Name& name,
                                     const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<Object>> {
    if (name.empty()) {
      return sp<Object>(std::dynamic_pointer_cast<Object>(shared_from_this()));
    }
    return ObjectFor(name);
  });
}

Status FusedSfs::Bind(const Name&, sp<Object>, const Credentials&, bool) {
  return ErrNotSupported("fused baseline: file creation only");
}

Status FusedSfs::Unbind(const Name& name, const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Status {
    std::string path = name.ToString();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_files_.erase(path);
    }
    return fs_->Remove(path);
  });
}

Result<std::vector<BindingInfo>> FusedSfs::ListAt(const Name&,
                                                  const Credentials&) {
  return ErrNotSupported("fused baseline: listing not offered");
}

Result<std::vector<BindingInfo>> FusedSfs::List(const Credentials& creds) {
  return ListAt(Name(), creds);
}

Result<sp<Context>> FusedSfs::CreateContext(const Name& name,
                                            const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<Context>> {
    RETURN_IF_ERROR(fs_->Mkdir(name.ToString()));
    return MakePrefixContext(
        std::dynamic_pointer_cast<FusedSfs>(shared_from_this()), name);
  });
}

Status FusedSfs::StackOn(sp<StackableFs>) {
  return ErrNotSupported("the fused baseline is, by definition, not stacked");
}

Result<sp<File>> FusedSfs::CreateFile(const Name& name,
                                      const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<File>> {
    ASSIGN_OR_RETURN(MonoFd fd, fs_->Create(name.ToString()));
    (void)fd;
    ASSIGN_OR_RETURN(sp<Object> file, ObjectFor(name));
    return narrow<File>(file);
  });
}

Result<FsInfo> FusedSfs::GetFsInfo() {
  FsInfo info;
  info.type = "fused-sfs";
  info.stack_depth = 1;
  info.block_size = ufs::kBlockSize;
  return info;
}

Status FusedSfs::SyncFs() {
  return InDomain([&] { return fs_->Sync(); });
}

}  // namespace springfs
