#include "src/layers/disklayer/disk_layer.h"

#include <algorithm>

#include "src/fs/prefix_context.h"

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

// The disk layer's pager object for one inode: serves page traffic straight
// from the device through UFS block operations. Non-coherent by design.
class DiskPagerObject : public FsPagerObject, public Servant {
 public:
  DiskPagerObject(sp<Domain> domain, sp<DiskLayer> layer, ufs::InodeNum ino,
                  uint64_t channel_id)
      : Servant(std::move(domain)), layer_(std::move(layer)), ino_(ino),
        channel_id_(channel_id) {}

  Result<Buffer> PageIn(Offset offset, Offset size,
                        AccessRights access) override {
    (void)access;  // no coherency: rights are not tracked here
    return InDomain([&]() -> Result<Buffer> {
      Offset end = PageCeil(offset + std::max<Offset>(size, 1));
      Buffer out(end - PageFloor(offset));
      for (Offset off = PageFloor(offset); off < end; off += kPageSize) {
        RETURN_IF_ERROR(layer_->ufs_->ReadFileBlock(
            ino_, off / kPageSize,
            out.mutable_span().subspan(off - PageFloor(offset), kPageSize)));
      }
      return out;
    });
  }

  Status PageOut(Offset offset, ByteSpan data) override {
    return WriteBlocks(offset, data);
  }
  Status WriteOut(Offset offset, ByteSpan data) override {
    return WriteBlocks(offset, data);
  }
  Status Sync(Offset offset, ByteSpan data) override {
    return WriteBlocks(offset, data);
  }

  void DoneWithPagerObject() override {
    InDomain([&] { layer_->channels_.RemoveChannel(channel_id_); });
  }

  Result<FileAttributes> GetAttributes() override {
    return InDomain([&]() -> Result<FileAttributes> {
      ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, layer_->ufs_->GetAttrs(ino_));
      FileAttributes out;
      out.kind = KindOf(attrs.type);
      out.size = attrs.size;
      out.nlink = attrs.nlink;
      out.atime_ns = attrs.atime_ns;
      out.mtime_ns = attrs.mtime_ns;
      return out;
    });
  }

  Status WriteAttributes(const AttrUpdate& update) override {
    return InDomain([&]() -> Status {
      if (update.size) {
        RETURN_IF_ERROR(layer_->ufs_->SetSize(ino_, *update.size));
      }
      if (update.atime_ns || update.mtime_ns) {
        ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, layer_->ufs_->GetAttrs(ino_));
        RETURN_IF_ERROR(layer_->ufs_->SetTimes(
            ino_, update.atime_ns.value_or(attrs.atime_ns),
            update.mtime_ns.value_or(attrs.mtime_ns)));
      }
      return Status::Ok();
    });
  }

 private:
  Status WriteBlocks(Offset offset, ByteSpan data) {
    if (offset % kPageSize != 0 || data.size() % kPageSize != 0) {
      return ErrInvalidArgument("page write must be page-aligned");
    }
    return InDomain([&]() -> Status {
      for (Offset off = 0; off < data.size(); off += kPageSize) {
        RETURN_IF_ERROR(layer_->ufs_->WriteFileBlock(
            ino_, (offset + off) / kPageSize, data.subspan(off, kPageSize)));
      }
      return Status::Ok();
    });
  }

  sp<DiskLayer> layer_;
  ufs::InodeNum ino_;
  uint64_t channel_id_;
};

// A regular file exported by the disk layer.
class DiskFile : public File, public Servant {
 public:
  DiskFile(sp<Domain> domain, sp<DiskLayer> layer, ufs::InodeNum ino)
      : Servant(std::move(domain)), layer_(std::move(layer)), ino_(ino) {}

  ufs::InodeNum ino() const { return ino_; }

  // --- MemoryObject ---
  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights requested_access) override {
    (void)requested_access;
    return InDomain([&] { return layer_->BindFile(ino_, caller); });
  }

  Result<Offset> GetLength() override {
    return InDomain([&]() -> Result<Offset> {
      ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, layer_->ufs_->GetAttrs(ino_));
      return Offset{attrs.size};
    });
  }

  Status SetLength(Offset length) override {
    return InDomain([&] { return layer_->ufs_->SetSize(ino_, length); });
  }

  // --- File ---
  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return InDomain([&] { return layer_->ufs_->Read(ino_, offset, out); });
  }

  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return InDomain([&] { return layer_->ufs_->Write(ino_, offset, data); });
  }

  Result<FileAttributes> Stat() override {
    return InDomain([&]() -> Result<FileAttributes> {
      ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, layer_->ufs_->GetAttrs(ino_));
      FileAttributes out;
      out.kind = KindOf(attrs.type);
      out.size = attrs.size;
      out.nlink = attrs.nlink;
      out.atime_ns = attrs.atime_ns;
      out.mtime_ns = attrs.mtime_ns;
      return out;
    });
  }

  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return InDomain(
        [&] { return layer_->ufs_->SetTimes(ino_, atime_ns, mtime_ns); });
  }

  Status SyncFile() override {
    return InDomain([&] { return layer_->ufs_->Commit(); });
  }

 private:
  sp<DiskLayer> layer_;
  ufs::InodeNum ino_;
};

Result<sp<DiskLayer>> DiskLayer::Format(sp<Domain> domain, BlockDevice* device,
                                        Clock* clock) {
  ASSIGN_OR_RETURN(std::unique_ptr<ufs::Ufs> fs,
                   ufs::Ufs::Format(device, clock));
  return sp<DiskLayer>(new DiskLayer(std::move(domain), std::move(fs), clock));
}

Result<sp<DiskLayer>> DiskLayer::Mount(sp<Domain> domain, BlockDevice* device,
                                       Clock* clock) {
  ASSIGN_OR_RETURN(std::unique_ptr<ufs::Ufs> fs,
                   ufs::Ufs::Mount(device, clock));
  return sp<DiskLayer>(new DiskLayer(std::move(domain), std::move(fs), clock));
}

DiskLayer::DiskLayer(sp<Domain> domain, std::unique_ptr<ufs::Ufs> fs,
                     Clock* clock)
    : Servant(std::move(domain)), ufs_(std::move(fs)), clock_(clock) {}

static sp<DiskLayer> SelfOf(DiskLayer* layer) {
  return std::dynamic_pointer_cast<DiskLayer>(layer->shared_from_this());
}

Result<ufs::InodeNum> DiskLayer::WalkToDir(const Name& dirname) {
  ufs::InodeNum current = ufs::kRootInode;
  for (const std::string& component : dirname.components()) {
    ASSIGN_OR_RETURN(current, ufs_->Lookup(current, component));
    ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, ufs_->GetAttrs(current));
    if (attrs.type != ufs::FileType::kDirectory) {
      return ErrNotADirectory("'" + component + "' is not a directory");
    }
  }
  return current;
}

Result<sp<Object>> DiskLayer::ObjectForInode(ufs::InodeNum ino,
                                             const Name& path) {
  ASSIGN_OR_RETURN(ufs::InodeAttrs attrs, ufs_->GetAttrs(ino));
  if (attrs.type == ufs::FileType::kDirectory) {
    return sp<Object>(MakePrefixContext(SelfOf(this), path));
  }
  ASSIGN_OR_RETURN(sp<File> file, FileForInode(ino));
  return sp<Object>(file);
}

Result<sp<File>> DiskLayer::FileForInode(ufs::InodeNum ino) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = open_files_.find(ino);
  if (it != open_files_.end()) {
    return it->second;
  }
  sp<File> file = std::make_shared<DiskFile>(domain(), SelfOf(this), ino);
  open_files_.emplace(ino, file);
  return file;
}

Result<sp<Object>> DiskLayer::Resolve(const Name& name,
                                      const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<Object>> {
    if (name.empty()) {
      return sp<Object>(std::static_pointer_cast<Object>(shared_from_this()));
    }
    ASSIGN_OR_RETURN(ufs::InodeNum dir, WalkToDir(name.Parent()));
    ASSIGN_OR_RETURN(ufs::InodeNum ino, ufs_->Lookup(dir, name.back()));
    return ObjectForInode(ino, name);
  });
}

Status DiskLayer::Bind(const Name& name, sp<Object> object,
                       const Credentials& creds, bool replace) {
  (void)creds;
  return InDomain([&]() -> Status {
    if (name.empty()) {
      return ErrInvalidArgument("cannot bind the empty name");
    }
    // Binding a file object of this very layer creates a hard link; foreign
    // objects cannot be stored in an on-disk context.
    sp<DiskFile> file = narrow<DiskFile>(object);
    if (!file) {
      return ErrNotSupported(
          "disk layer contexts only hold objects implemented by this layer");
    }
    ASSIGN_OR_RETURN(ufs::InodeNum dir, WalkToDir(name.Parent()));
    if (replace) {
      Status removed = ufs_->Remove(dir, name.back());
      if (!removed.ok() && removed.code() != ErrorCode::kNotFound) {
        return removed;
      }
    }
    return ufs_->Link(dir, name.back(), file->ino());
  });
}

Status DiskLayer::Unbind(const Name& name, const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Status {
    if (name.empty()) {
      return ErrInvalidArgument("cannot unbind the empty name");
    }
    ASSIGN_OR_RETURN(ufs::InodeNum dir, WalkToDir(name.Parent()));
    ASSIGN_OR_RETURN(ufs::InodeNum target, ufs_->Lookup(dir, name.back()));
    RETURN_IF_ERROR(ufs_->Remove(dir, name.back()));
    // If that was the last link, drop the open-file state and pager
    // channels: the inode number may be reused by a different file.
    if (!ufs_->GetAttrs(target).ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      open_files_.erase(target);
      pager_keys_.erase(target);
      channels_.RemoveFile(target);
    }
    return Status::Ok();
  });
}

Result<std::vector<BindingInfo>> DiskLayer::ListAt(const Name& prefix,
                                                   const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<std::vector<BindingInfo>> {
    ASSIGN_OR_RETURN(ufs::InodeNum dir, WalkToDir(prefix));
    ASSIGN_OR_RETURN(std::vector<ufs::NamedEntry> entries, ufs_->ReadDir(dir));
    std::vector<BindingInfo> out;
    out.reserve(entries.size());
    for (const auto& entry : entries) {
      out.push_back(BindingInfo{entry.name,
                                entry.type == ufs::FileType::kDirectory});
    }
    return out;
  });
}

Result<std::vector<BindingInfo>> DiskLayer::List(const Credentials& creds) {
  return ListAt(Name(), creds);
}

Result<sp<Context>> DiskLayer::CreateContext(const Name& name,
                                             const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<Context>> {
    if (name.empty()) {
      return ErrInvalidArgument("cannot create a context at the empty name");
    }
    ASSIGN_OR_RETURN(ufs::InodeNum dir, WalkToDir(name.Parent()));
    RETURN_IF_ERROR(
        ufs_->Create(dir, name.back(), ufs::FileType::kDirectory).status());
    return MakePrefixContext(SelfOf(this), name);
  });
}

Status DiskLayer::StackOn(sp<StackableFs> underlying) {
  (void)underlying;
  return ErrNotSupported("the disk layer is a base file system");
}

Result<sp<File>> DiskLayer::CreateFile(const Name& name,
                                       const Credentials& creds) {
  (void)creds;
  return InDomain([&]() -> Result<sp<File>> {
    if (name.empty()) {
      return ErrInvalidArgument("cannot create the empty name");
    }
    ASSIGN_OR_RETURN(ufs::InodeNum dir, WalkToDir(name.Parent()));
    ASSIGN_OR_RETURN(ufs::InodeNum ino,
                     ufs_->Create(dir, name.back(), ufs::FileType::kRegular));
    return FileForInode(ino);
  });
}

Result<FsInfo> DiskLayer::GetFsInfo() {
  return InDomain([&]() -> Result<FsInfo> {
    FsInfo info;
    info.type = "disk";
    info.total_blocks = ufs_->superblock().num_blocks;
    info.free_blocks = ufs_->FreeBlocks();
    info.block_size = ufs::kBlockSize;
    info.stack_depth = 1;
    return info;
  });
}

Status DiskLayer::SyncFs() {
  return InDomain([&] { return ufs_->Sync(); });
}

Result<sp<CacheRights>> DiskLayer::BindFile(ufs::InodeNum ino,
                                            const sp<CacheManager>& manager) {
  uint64_t pager_key;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = pager_keys_.try_emplace(ino, 0);
    if (inserted) {
      it->second = NewPagerKey();
    }
    pager_key = it->second;
  }
  sp<DiskLayer> self = SelfOf(this);
  return channels_.Bind(ino, pager_key, manager,
                        [&](uint64_t local_id) -> sp<PagerObject> {
                          return std::make_shared<DiskPagerObject>(
                              domain(), self, ino, local_id);
                        });
}

}  // namespace springfs
