// Tests for the file-system framework: the channel table (bind exchange,
// idempotence, fs_cache narrowing), the fs_cache/fs_pager attribute types,
// the MemFile reference pager through the plain File interface, and the
// sub-directory naming conformance of every local stack.

#include <gtest/gtest.h>

#include "src/fs/channel_table.h"
#include "src/fs/mem_file.h"
#include "src/layers/compfs/comp_layer.h"
#include "src/layers/cryptfs/crypt_layer.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/mirrorfs/mirror_layer.h"
#include "src/layers/passfs/pass_layer.h"
#include "src/layers/sfs/sfs.h"
#include "src/layers/xattrfs/xattr_layer.h"
#include "src/vmm/vmm.h"
#include "tests/cached_file_conformance.h"
#include "tests/subdir_conformance.h"

namespace springfs {
namespace {

// A plain cache manager (not a file system): its cache object does NOT
// implement FsCacheObject, so pagers that narrow must get null.
class PlainManager : public CacheManager {
 public:
  class PlainCache : public CacheObject {
   public:
    Result<std::vector<BlockData>> FlushBack(Range) override {
      return std::vector<BlockData>{};
    }
    Result<std::vector<BlockData>> DenyWrites(Range) override {
      return std::vector<BlockData>{};
    }
    Result<std::vector<BlockData>> WriteBack(Range) override {
      return std::vector<BlockData>{};
    }
    Status DeleteRange(Range) override { return Status::Ok(); }
    Status ZeroFill(Range) override { return Status::Ok(); }
    Status Populate(Offset, AccessRights, ByteSpan) override {
      return Status::Ok();
    }
    Status DestroyCache() override { return Status::Ok(); }
  };

  class PlainRights : public CacheRights {
   public:
    explicit PlainRights(uint64_t id) : id_(id) {}
    uint64_t channel_id() const override { return id_; }

   private:
    uint64_t id_;
  };

  Result<ChannelSetup> EstablishChannel(uint64_t pager_key,
                                        sp<PagerObject> pager) override {
    ++establish_calls;
    last_pager = std::move(pager);
    auto it = setups_.find(pager_key);
    if (it == setups_.end()) {
      ChannelSetup setup{std::make_shared<PlainCache>(),
                         std::make_shared<PlainRights>(next_id_++)};
      it = setups_.emplace(pager_key, setup).first;
    }
    return it->second;
  }
  std::string cache_manager_name() const override { return "plain"; }

  int establish_calls = 0;
  sp<PagerObject> last_pager;

 private:
  uint64_t next_id_ = 100;
  std::map<uint64_t, ChannelSetup> setups_;
};

// A file-system cache manager: its cache object IS an FsCacheObject.
class FsManager : public CacheManager {
 public:
  class FsCache : public FsCacheObject {
   public:
    Result<std::vector<BlockData>> FlushBack(Range) override {
      return std::vector<BlockData>{};
    }
    Result<std::vector<BlockData>> DenyWrites(Range) override {
      return std::vector<BlockData>{};
    }
    Result<std::vector<BlockData>> WriteBack(Range) override {
      return std::vector<BlockData>{};
    }
    Status DeleteRange(Range) override { return Status::Ok(); }
    Status ZeroFill(Range) override { return Status::Ok(); }
    Status Populate(Offset, AccessRights, ByteSpan) override {
      return Status::Ok();
    }
    Status DestroyCache() override { return Status::Ok(); }
    Status InvalidateAttributes() override { return Status::Ok(); }
    Result<AttrUpdate> RecallAttributes() override { return AttrUpdate{}; }
  };

  Result<ChannelSetup> EstablishChannel(uint64_t, sp<PagerObject>) override {
    return ChannelSetup{std::make_shared<FsCache>(),
                        std::make_shared<PlainManager::PlainRights>(7)};
  }
  std::string cache_manager_name() const override { return "fs"; }
};

class DummyPager : public PagerObject {
 public:
  Result<Buffer> PageIn(Offset, Offset size, AccessRights) override {
    return Buffer(size);
  }
  Status PageOut(Offset, ByteSpan) override { return Status::Ok(); }
  Status WriteOut(Offset, ByteSpan) override { return Status::Ok(); }
  Status Sync(Offset, ByteSpan) override { return Status::Ok(); }
  void DoneWithPagerObject() override {}
};

TEST(PagerKeyTest, KeysAreUnique) {
  uint64_t a = NewPagerKey();
  uint64_t b = NewPagerKey();
  EXPECT_NE(a, b);
}

TEST(ChannelTableTest, BindEstablishesOnce) {
  PagerChannelTable table;
  auto manager = std::make_shared<PlainManager>();
  uint64_t key = NewPagerKey();
  auto make_pager = [](uint64_t) -> sp<PagerObject> {
    return std::make_shared<DummyPager>();
  };
  Result<sp<CacheRights>> r1 = table.Bind(1, key, manager, make_pager);
  ASSERT_TRUE(r1.ok());
  Result<sp<CacheRights>> r2 = table.Bind(1, key, manager, make_pager);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);  // same rights object both times
  EXPECT_EQ(manager->establish_calls, 1);
  EXPECT_EQ(table.NumChannels(), 1u);
}

TEST(ChannelTableTest, DistinctManagersGetDistinctChannels) {
  PagerChannelTable table;
  auto m1 = std::make_shared<PlainManager>();
  auto m2 = std::make_shared<PlainManager>();
  uint64_t key = NewPagerKey();
  auto make_pager = [](uint64_t) -> sp<PagerObject> {
    return std::make_shared<DummyPager>();
  };
  ASSERT_TRUE(table.Bind(1, key, m1, make_pager).ok());
  ASSERT_TRUE(table.Bind(1, key, m2, make_pager).ok());
  EXPECT_EQ(table.NumChannels(), 2u);
  EXPECT_EQ(table.ChannelsForFile(1).size(), 2u);
}

TEST(ChannelTableTest, DistinctFilesGetDistinctChannels) {
  PagerChannelTable table;
  auto manager = std::make_shared<PlainManager>();
  auto make_pager = [](uint64_t) -> sp<PagerObject> {
    return std::make_shared<DummyPager>();
  };
  ASSERT_TRUE(table.Bind(1, NewPagerKey(), manager, make_pager).ok());
  ASSERT_TRUE(table.Bind(2, NewPagerKey(), manager, make_pager).ok());
  EXPECT_EQ(table.NumChannels(), 2u);
  EXPECT_EQ(table.ChannelsForFile(1).size(), 1u);
  EXPECT_EQ(table.ChannelsForFile(2).size(), 1u);
}

TEST(ChannelTableTest, NarrowsFsCacheObjects) {
  PagerChannelTable table;
  auto plain = std::make_shared<PlainManager>();
  auto fs = std::make_shared<FsManager>();
  auto make_pager = [](uint64_t) -> sp<PagerObject> {
    return std::make_shared<DummyPager>();
  };
  ASSERT_TRUE(table.Bind(1, NewPagerKey(), plain, make_pager).ok());
  ASSERT_TRUE(table.Bind(2, NewPagerKey(), fs, make_pager).ok());
  // The pager discovers which peer is a file system via narrow.
  EXPECT_EQ(table.ChannelsForFile(1)[0].fs_cache, nullptr);
  EXPECT_NE(table.ChannelsForFile(2)[0].fs_cache, nullptr);
}

TEST(ChannelTableTest, RemoveChannelAllowsReestablish) {
  PagerChannelTable table;
  auto manager = std::make_shared<PlainManager>();
  uint64_t key = NewPagerKey();
  auto make_pager = [](uint64_t) -> sp<PagerObject> {
    return std::make_shared<DummyPager>();
  };
  ASSERT_TRUE(table.Bind(1, key, manager, make_pager).ok());
  uint64_t local_id = table.ChannelsForFile(1)[0].local_id;
  table.RemoveChannel(local_id);
  EXPECT_EQ(table.NumChannels(), 0u);
  ASSERT_TRUE(table.Bind(1, key, manager, make_pager).ok());
  EXPECT_EQ(manager->establish_calls, 2);
}

TEST(ChannelTableTest, RemoveFileDropsAllItsChannels) {
  PagerChannelTable table;
  auto m1 = std::make_shared<PlainManager>();
  auto m2 = std::make_shared<PlainManager>();
  auto make_pager = [](uint64_t) -> sp<PagerObject> {
    return std::make_shared<DummyPager>();
  };
  ASSERT_TRUE(table.Bind(1, NewPagerKey(), m1, make_pager).ok());
  ASSERT_TRUE(table.Bind(1, NewPagerKey(), m2, make_pager).ok());
  ASSERT_TRUE(table.Bind(2, NewPagerKey(), m1, make_pager).ok());
  table.RemoveFile(1);
  EXPECT_EQ(table.NumChannels(), 1u);
  EXPECT_TRUE(table.ChannelsForFile(1).empty());
}

TEST(ChannelTableTest, BindWithNullManagerFails) {
  PagerChannelTable table;
  EXPECT_EQ(table.Bind(1, NewPagerKey(), nullptr,
                       [](uint64_t) -> sp<PagerObject> { return nullptr; })
                .status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(AttrUpdateTest, EmptyDetection) {
  AttrUpdate update;
  EXPECT_TRUE(update.empty());
  update.mtime_ns = 5;
  EXPECT_FALSE(update.empty());
}

// --- MemFile through the File interface ---

class MemFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    domain_ = Domain::Create("mem");
    file_ = MemFile::Create(domain_, &clock_);
  }

  FakeClock clock_;
  sp<Domain> domain_;
  sp<MemFile> file_;
};

TEST_F(MemFileTest, ReadWriteRoundTrip) {
  Buffer data(std::string("in memory"));
  ASSERT_TRUE(file_->Write(0, data.span()).ok());
  Buffer out(9);
  Result<size_t> n = file_->Read(0, out.mutable_span());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 9u);
  EXPECT_EQ(out.ToString(), "in memory");
}

TEST_F(MemFileTest, StatTracksSizeAndTimes) {
  clock_.Advance(10);
  Buffer data(std::string("xyz"));
  ASSERT_TRUE(file_->Write(0, data.span()).ok());
  Result<FileAttributes> attrs = file_->Stat();
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 3u);
  EXPECT_EQ(attrs->kind, FileKind::kRegular);
  uint64_t mtime = attrs->mtime_ns;
  clock_.Advance(10);
  ASSERT_TRUE(file_->Write(3, data.span()).ok());
  EXPECT_GT(file_->Stat()->mtime_ns, mtime);
}

TEST_F(MemFileTest, SetLengthTruncatesAndExtends) {
  Buffer data(std::string("0123456789"));
  ASSERT_TRUE(file_->Write(0, data.span()).ok());
  ASSERT_TRUE(file_->SetLength(4).ok());
  EXPECT_EQ(*file_->GetLength(), 4u);
  ASSERT_TRUE(file_->SetLength(8).ok());
  Buffer out(8);
  EXPECT_EQ(*file_->Read(0, out.mutable_span()), 8u);
  EXPECT_EQ(out.ToString().substr(0, 4), "0123");
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(out.data()[i], 0);
  }
}

TEST_F(MemFileTest, SetTimes) {
  ASSERT_TRUE(file_->SetTimes(77, 88).ok());
  Result<FileAttributes> attrs = file_->Stat();
  EXPECT_EQ(attrs->atime_ns, 77u);
  EXPECT_EQ(attrs->mtime_ns, 88u);
}

// --- The guards of every layer over one lower file system ---

TEST(StackedLayerTest, EveryOpWaitsForOneStackOn) {
  FakeClock clock;
  MemBlockDevice device(ufs::kBlockSize, 4096);
  Sfs sfs = *CreateSfs(&device, SfsOptions{}, &clock);
  net::Network network(&clock, 1000);
  std::vector<sp<StackableFs>> layers = {
      CoherencyLayer::Create(Domain::Create("coherency"), {}, &clock),
      CompLayer::Create(Domain::Create("compfs"), {}, &clock),
      XattrLayer::Create(Domain::Create("xattrfs"), &clock),
      *dfs::DfsServer::Create(network.AddNode("server"), &network, "dfs",
                              nullptr, &clock)};
  Credentials sys = Credentials::System();
  Name f = *Name::Parse("f");
  for (const sp<StackableFs>& layer : layers) {
    SCOPED_TRACE(layer->interface_name());
    constexpr ErrorCode kUnstacked = ErrorCode::kInvalidArgument;
    EXPECT_EQ(layer->Resolve(Name(), sys).code(), kUnstacked);
    EXPECT_EQ(layer->Resolve(f, sys).code(), kUnstacked);
    EXPECT_EQ(layer->Bind(f, layer, sys).code(), kUnstacked);
    EXPECT_EQ(layer->Unbind(f, sys).code(), kUnstacked);
    EXPECT_EQ(layer->List(sys).code(), kUnstacked);
    EXPECT_EQ(layer->CreateContext(f, sys).code(), kUnstacked);
    EXPECT_EQ(layer->CreateFile(f, sys).code(), kUnstacked);
    EXPECT_EQ(layer->GetFsInfo().code(), kUnstacked);
    EXPECT_EQ(layer->SyncFs().code(), kUnstacked);

    EXPECT_EQ(layer->StackOn(nullptr).code(), ErrorCode::kInvalidArgument);
    ASSERT_TRUE(layer->StackOn(sfs.root).ok());
    EXPECT_EQ(layer->StackOn(sfs.root).code(), ErrorCode::kAlreadyExists);
    EXPECT_TRUE(layer->CreateFile(f, sys).ok());
    ASSERT_TRUE(layer->Unbind(f, sys).ok());
  }
}

// --- Sub-directory conformance over the local stacks ---

enum class LocalStack {
  kDisk,
  kSfsOneDomain,
  kSfsTwoDomains,
  kCryptfs,
  kPassfs,
  kCompfsFig5,
  kCompfsFig6,
  kXattrfs,
  kMirrorfs,
  kDfsServer,
};

std::string LocalStackName(const ::testing::TestParamInfo<LocalStack>& info) {
  switch (info.param) {
    case LocalStack::kDisk:
      return "Disk";
    case LocalStack::kSfsOneDomain:
      return "SfsOneDomain";
    case LocalStack::kSfsTwoDomains:
      return "SfsTwoDomains";
    case LocalStack::kCryptfs:
      return "Cryptfs";
    case LocalStack::kPassfs:
      return "Passfs";
    case LocalStack::kCompfsFig5:
      return "CompfsFig5";
    case LocalStack::kCompfsFig6:
      return "CompfsFig6";
    case LocalStack::kXattrfs:
      return "Xattrfs";
    case LocalStack::kMirrorfs:
      return "Mirrorfs";
    case LocalStack::kDfsServer:
      return "DfsServer";
  }
  return "Unknown";
}

class SubdirConformanceTest : public ::testing::TestWithParam<LocalStack> {
 protected:
  void SetUp() override {
    LocalStack kind = GetParam();
    SfsOptions options;
    switch (kind) {
      case LocalStack::kDisk:
        options.placement = SfsPlacement::kNotStacked;
        break;
      case LocalStack::kSfsTwoDomains:
        options.placement = SfsPlacement::kTwoDomains;
        break;
      default:
        break;
    }
    int replicas = kind == LocalStack::kMirrorfs ? 2 : 1;
    for (int i = 0; i < replicas; ++i) {
      devices_.push_back(
          std::make_unique<MemBlockDevice>(ufs::kBlockSize, 4096));
      sfs_.push_back(*CreateSfs(devices_.back().get(), options, &clock_));
    }
    root_ = NewTop();
  }

  // A new instance of the layer under test over the SFS instances (the SFS
  // root itself for the plain stacks).
  sp<StackableFs> NewTop() {
    sp<StackableFs> top;
    switch (GetParam()) {
      case LocalStack::kCryptfs:
        top = CryptLayer::Create(Domain::Create("cryptfs"), "key", {},
                                 &clock_);
        break;
      case LocalStack::kCompfsFig5:
      case LocalStack::kCompfsFig6: {
        CompLayerOptions comp;
        comp.coherent_lower = GetParam() == LocalStack::kCompfsFig6;
        top = CompLayer::Create(Domain::Create("compfs"), comp, &clock_);
        break;
      }
      case LocalStack::kXattrfs:
        top = XattrLayer::Create(Domain::Create("xattrfs"), &clock_);
        break;
      case LocalStack::kMirrorfs:
        top = MirrorLayer::Create(Domain::Create("mirrorfs"), &clock_);
        break;
      case LocalStack::kDfsServer: {
        network_ = std::make_unique<net::Network>(&clock_, 1000);
        Result<sp<dfs::DfsServer>> server = dfs::DfsServer::Create(
            network_->AddNode("server"), network_.get(), "dfs", sfs_[0].root,
            &clock_);
        EXPECT_TRUE(server.ok()) << server.status().ToString();
        return server.ok() ? *server : nullptr;
      }
      default:
        return sfs_[0].root;
    }
    for (const Sfs& sfs : sfs_) {
      EXPECT_TRUE(top->StackOn(sfs.root).ok());
    }
    return top;
  }

  subdir_conformance::CreateFn Create() {
    return [root = root_, sys = sys_](const Name& name) {
      return root->CreateFile(name, sys);
    };
  }

  Credentials sys_ = Credentials::System();
  FakeClock clock_;
  std::vector<std::unique_ptr<MemBlockDevice>> devices_;
  std::vector<Sfs> sfs_;
  std::unique_ptr<net::Network> network_;
  sp<StackableFs> root_;
};

TEST_P(SubdirConformanceTest, ResolveMatchesRoot) {
  subdir_conformance::ExpectResolveMatchesRoot(root_, Create());
}

TEST_P(SubdirConformanceTest, ListMatchesRoot) {
  subdir_conformance::ExpectListMatchesRoot(root_, Create());
}

TEST_P(SubdirConformanceTest, UnbindRecreateMatchesRoot) {
  subdir_conformance::ExpectUnbindRecreateMatchesRoot(root_, Create());
}

TEST_P(SubdirConformanceTest, BindMatchesRoot) {
  subdir_conformance::ExpectBindMatchesRoot(root_, Create());
}

INSTANTIATE_TEST_SUITE_P(
    LocalStacks, SubdirConformanceTest,
    ::testing::Values(LocalStack::kDisk, LocalStack::kSfsOneDomain,
                      LocalStack::kSfsTwoDomains, LocalStack::kCryptfs,
                      LocalStack::kCompfsFig5, LocalStack::kCompfsFig6,
                      LocalStack::kXattrfs, LocalStack::kMirrorfs,
                      LocalStack::kDfsServer),
    LocalStackName);

// The shadow-name checks over the layers that keep per-file shadow files
// below.
class ShadowNameTest : public SubdirConformanceTest {
 protected:
  std::string Suffix() const {
    return GetParam() == LocalStack::kXattrfs ? ".xattr" : ".cmeta";
  }
};

TEST_P(ShadowNameTest, ShadowNamesRefused) {
  subdir_conformance::ExpectShadowNamesRefused(
      root_, Create(), Suffix(), [this] { return sp<Context>(NewTop()); });
}

INSTANTIATE_TEST_SUITE_P(ShadowStacks, ShadowNameTest,
                         ::testing::Values(LocalStack::kCompfsFig5,
                                           LocalStack::kCompfsFig6,
                                           LocalStack::kXattrfs),
                         LocalStackName);

// --- Cached-file conformance over the caching stacks ---

class CachedFileConformanceTest : public ::testing::TestWithParam<LocalStack> {
 protected:
  void SetUp() override { root_ = Build(/*format=*/true); }

  // The stack under test over device_: formatted, or mounted afresh over
  // what an earlier stack synced.
  sp<StackableFs> Build(bool format) {
    LocalStack kind = GetParam();
    SfsOptions options;
    options.format = format;
    if (kind == LocalStack::kSfsTwoDomains) {
      options.placement = SfsPlacement::kTwoDomains;
    }
    Result<Sfs> sfs = CreateSfs(&device_, options, &clock_);
    EXPECT_TRUE(sfs.ok()) << sfs.status().ToString();
    if (!sfs.ok()) {
      return nullptr;
    }
    sp<StackableFs> top;
    switch (kind) {
      case LocalStack::kCryptfs:
        top = CryptLayer::Create(Domain::Create("cryptfs"), "key", {},
                                 &clock_);
        break;
      case LocalStack::kPassfs:
        top = PassLayer::Create(Domain::Create("passfs"), {}, 0, &clock_);
        break;
      case LocalStack::kCompfsFig5:
      case LocalStack::kCompfsFig6: {
        CompLayerOptions comp;
        comp.coherent_lower = kind == LocalStack::kCompfsFig6;
        top = CompLayer::Create(Domain::Create("compfs"), comp, &clock_);
        break;
      }
      default:
        return sfs->root;
    }
    EXPECT_TRUE(top->StackOn(sfs->root).ok());
    return top;
  }

  FakeClock clock_;
  MemBlockDevice device_{ufs::kBlockSize, 4096};
  sp<StackableFs> root_;
};

TEST_P(CachedFileConformanceTest, UpperLayerSeesDirectAttrChanges) {
  cached_file_conformance::ExpectUpperSeesDirectAttrChanges(root_);
}

TEST_P(CachedFileConformanceTest, TruncateZeroesMappedTail) {
  cached_file_conformance::ExpectTruncateZeroesMappedTail(root_);
}

TEST_P(CachedFileConformanceTest, DirtyMappedPageSurvivesSyncAndFreshStack) {
  cached_file_conformance::ExpectDirtyMappedPageSurvivesSync(
      root_, [this] { return Build(/*format=*/false); });
}

TEST_P(CachedFileConformanceTest, AttrsSetWithoutIoSurviveSyncAndFreshStack) {
  cached_file_conformance::ExpectAttrsSetWithoutIoSurviveSync(
      root_, [this] { return Build(/*format=*/false); });
}

TEST_P(CachedFileConformanceTest, DirectReadRecallsMappedWrites) {
  cached_file_conformance::ExpectDirectReadRecallsMappedWrites(root_);
}

INSTANTIATE_TEST_SUITE_P(
    CachingStacks, CachedFileConformanceTest,
    ::testing::Values(LocalStack::kSfsOneDomain, LocalStack::kSfsTwoDomains,
                      LocalStack::kCryptfs, LocalStack::kPassfs,
                      LocalStack::kCompfsFig5, LocalStack::kCompfsFig6),
    LocalStackName);

}  // namespace
}  // namespace springfs
