// Unit and property tests for the UFS substrate: format/mount, directories,
// file data across direct/indirect/double-indirect ranges, truncation, hard
// links, persistence, the metadata block cache, the fsck-style checker, and
// a randomized workload checked against an in-memory reference model.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "src/blockdev/block_device.h"
#include "src/blockdev/decorators.h"
#include "src/support/rng.h"
#include "src/ufs/checker.h"
#include "src/ufs/ufs.h"

namespace springfs::ufs {
namespace {

class UfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<MemBlockDevice>(kBlockSize, 4096);
    clock_ = std::make_unique<FakeClock>();
    Result<std::unique_ptr<Ufs>> fs = Ufs::Format(device_.get(), clock_.get());
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = fs.take_value();
  }

  void ExpectClean() {
    ASSERT_TRUE(fs_->Sync().ok());
    Checker checker(device_.get());
    Result<CheckReport> report = checker.Check();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->clean()) << report->Summary();
  }

  std::unique_ptr<MemBlockDevice> device_;
  std::unique_ptr<FakeClock> clock_;
  std::unique_ptr<Ufs> fs_;
};

TEST_F(UfsTest, FormatCreatesEmptyRoot) {
  Result<std::vector<NamedEntry>> entries = fs_->ReadDir(kRootInode);
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
  ExpectClean();
}

TEST_F(UfsTest, CreateAndLookup) {
  Result<InodeNum> ino = fs_->Create(kRootInode, "hello", FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  Result<InodeNum> found = fs_->Lookup(kRootInode, "hello");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *ino);
  ExpectClean();
}

TEST_F(UfsTest, LookupMissingIsNotFound) {
  EXPECT_EQ(fs_->Lookup(kRootInode, "ghost").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(UfsTest, DuplicateCreateFails) {
  ASSERT_TRUE(fs_->Create(kRootInode, "x", FileType::kRegular).ok());
  EXPECT_EQ(fs_->Create(kRootInode, "x", FileType::kRegular).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(UfsTest, RejectsBadNames) {
  EXPECT_EQ(fs_->Create(kRootInode, "", FileType::kRegular).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs_->Create(kRootInode, "a/b", FileType::kRegular).status().code(),
            ErrorCode::kInvalidArgument);
  std::string long_name(kMaxNameLen + 1, 'n');
  EXPECT_EQ(fs_->Create(kRootInode, long_name, FileType::kRegular)
                .status().code(),
            ErrorCode::kInvalidArgument);
  std::string max_name(kMaxNameLen, 'n');
  EXPECT_TRUE(fs_->Create(kRootInode, max_name, FileType::kRegular).ok());
}

TEST_F(UfsTest, WriteReadRoundTrip) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Rng rng(1);
  Buffer data = rng.RandomBuffer(1000);
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  Buffer out(1000);
  Result<size_t> n = fs_->Read(ino, 0, out.mutable_span());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1000u);
  EXPECT_EQ(out, data);
  ExpectClean();
}

TEST_F(UfsTest, UnalignedWritesPreserveNeighbors) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Buffer a(std::string("AAAA"));
  Buffer b(std::string("BB"));
  ASSERT_TRUE(fs_->Write(ino, 0, a.span()).ok());
  ASSERT_TRUE(fs_->Write(ino, 1, b.span()).ok());
  Buffer out(4);
  ASSERT_TRUE(fs_->Read(ino, 0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "ABBA");
}

TEST_F(UfsTest, ReadPastEofIsShort) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Buffer data(std::string("12345"));
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  Buffer out(100);
  Result<size_t> n = fs_->Read(ino, 3, out.mutable_span());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(*fs_->Read(ino, 5, out.mutable_span()), 0u);
  EXPECT_EQ(*fs_->Read(ino, 50, out.mutable_span()), 0u);
}

TEST_F(UfsTest, SparseFileReadsZerosInHoles) {
  InodeNum ino = *fs_->Create(kRootInode, "sparse", FileType::kRegular);
  Buffer tail(std::string("end"));
  // Write beyond several blocks without touching earlier ones.
  ASSERT_TRUE(fs_->Write(ino, 10 * kBlockSize, tail.span()).ok());
  Buffer out(kBlockSize);
  ASSERT_TRUE(fs_->Read(ino, kBlockSize, out.mutable_span()).ok());
  for (size_t i = 0; i < kBlockSize; ++i) {
    ASSERT_EQ(out.data()[i], 0);
  }
  Result<InodeAttrs> attrs = fs_->GetAttrs(ino);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 10 * kBlockSize + 3);
  ExpectClean();
}

TEST_F(UfsTest, LargeFileSpansIndirectBlocks) {
  InodeNum ino = *fs_->Create(kRootInode, "big", FileType::kRegular);
  // Beyond 12 direct blocks: 40 blocks uses the single-indirect range.
  Rng rng(2);
  Buffer data = rng.RandomBuffer(40 * kBlockSize);
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  Buffer out(40 * kBlockSize);
  ASSERT_TRUE(fs_->Read(ino, 0, out.mutable_span()).ok());
  EXPECT_EQ(Fnv1a64(out.span()), Fnv1a64(data.span()));
  ExpectClean();
}

TEST_F(UfsTest, DoubleIndirectRange) {
  InodeNum ino = *fs_->Create(kRootInode, "huge", FileType::kRegular);
  // File block kNumDirect + kPtrsPerBlock + 5 lives in the double-indirect
  // range; write it as a sparse block so the test stays fast.
  uint64_t fb = kNumDirect + kPtrsPerBlock + 5;
  Buffer data(std::string("deep"));
  ASSERT_TRUE(fs_->Write(ino, fb * kBlockSize, data.span()).ok());
  Buffer out(4);
  ASSERT_TRUE(fs_->Read(ino, fb * kBlockSize, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "deep");
  ExpectClean();
}

TEST_F(UfsTest, TruncateShrinkFreesBlocks) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Rng rng(3);
  Buffer data = rng.RandomBuffer(20 * kBlockSize);
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  uint64_t free_before = fs_->FreeBlocks();
  ASSERT_TRUE(fs_->Truncate(ino, kBlockSize).ok());
  EXPECT_GT(fs_->FreeBlocks(), free_before);
  Result<InodeAttrs> attrs = fs_->GetAttrs(ino);
  EXPECT_EQ(attrs->size, kBlockSize);
  ExpectClean();
}

TEST_F(UfsTest, TruncateThenExtendReadsZeros) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Buffer data(std::string("secret-data"));
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  ASSERT_TRUE(fs_->Truncate(ino, 3).ok());
  ASSERT_TRUE(fs_->Truncate(ino, 11).ok());
  Buffer out(11);
  ASSERT_TRUE(fs_->Read(ino, 0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString().substr(0, 3), "sec");
  for (size_t i = 3; i < 11; ++i) {
    EXPECT_EQ(out.data()[i], 0) << "old data resurrected at " << i;
  }
}

TEST_F(UfsTest, RemoveFreesEverything) {
  // Warm-up so the root directory's entry block is already allocated; a
  // directory keeps its blocks after entries are removed.
  ASSERT_TRUE(fs_->Create(kRootInode, "warmup", FileType::kRegular).ok());
  ASSERT_TRUE(fs_->Remove(kRootInode, "warmup").ok());
  uint64_t free_blocks = fs_->FreeBlocks();
  uint64_t free_inodes = fs_->FreeInodes();
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Rng rng(4);
  Buffer data = rng.RandomBuffer(30 * kBlockSize);
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  ASSERT_TRUE(fs_->Remove(kRootInode, "f").ok());
  EXPECT_EQ(fs_->FreeBlocks(), free_blocks);
  EXPECT_EQ(fs_->FreeInodes(), free_inodes);
  EXPECT_EQ(fs_->Lookup(kRootInode, "f").status().code(),
            ErrorCode::kNotFound);
  ExpectClean();
}

TEST_F(UfsTest, RemoveNonEmptyDirectoryFails) {
  InodeNum dir = *fs_->Create(kRootInode, "d", FileType::kDirectory);
  ASSERT_TRUE(fs_->Create(dir, "child", FileType::kRegular).ok());
  EXPECT_EQ(fs_->Remove(kRootInode, "d").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(fs_->Remove(dir, "child").ok());
  EXPECT_TRUE(fs_->Remove(kRootInode, "d").ok());
  ExpectClean();
}

TEST_F(UfsTest, HardLinksShareData) {
  InodeNum ino = *fs_->Create(kRootInode, "a", FileType::kRegular);
  ASSERT_TRUE(fs_->Link(kRootInode, "b", ino).ok());
  Buffer data(std::string("shared"));
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  InodeNum via_b = *fs_->Lookup(kRootInode, "b");
  EXPECT_EQ(via_b, ino);
  Result<InodeAttrs> attrs = fs_->GetAttrs(ino);
  EXPECT_EQ(attrs->nlink, 2u);
  // Removing one name keeps the data.
  ASSERT_TRUE(fs_->Remove(kRootInode, "a").ok());
  Buffer out(6);
  ASSERT_TRUE(fs_->Read(via_b, 0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "shared");
  ASSERT_TRUE(fs_->Remove(kRootInode, "b").ok());
  ExpectClean();
}

TEST_F(UfsTest, HardLinkToDirectoryForbidden) {
  InodeNum dir = *fs_->Create(kRootInode, "d", FileType::kDirectory);
  EXPECT_EQ(fs_->Link(kRootInode, "d2", dir).code(), ErrorCode::kIsADirectory);
}

TEST_F(UfsTest, RenameMovesBinding) {
  InodeNum ino = *fs_->Create(kRootInode, "old", FileType::kRegular);
  InodeNum dir = *fs_->Create(kRootInode, "d", FileType::kDirectory);
  ASSERT_TRUE(fs_->Rename(kRootInode, "old", dir, "new").ok());
  EXPECT_EQ(fs_->Lookup(kRootInode, "old").status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(*fs_->Lookup(dir, "new"), ino);
  ExpectClean();
}

TEST_F(UfsTest, ReadDirListsAllEntries) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fs_->Create(kRootInode, "file" + std::to_string(i),
                            FileType::kRegular).ok());
  }
  Result<std::vector<NamedEntry>> entries = fs_->ReadDir(kRootInode);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 100u);
  ExpectClean();
}

TEST_F(UfsTest, DirSlotReuseAfterRemove) {
  ASSERT_TRUE(fs_->Create(kRootInode, "a", FileType::kRegular).ok());
  ASSERT_TRUE(fs_->Create(kRootInode, "b", FileType::kRegular).ok());
  ASSERT_TRUE(fs_->Remove(kRootInode, "a").ok());
  ASSERT_TRUE(fs_->Create(kRootInode, "c", FileType::kRegular).ok());
  Result<std::vector<NamedEntry>> entries = fs_->ReadDir(kRootInode);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  ExpectClean();
}

TEST_F(UfsTest, AttributesTrackOperations) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Result<InodeAttrs> created = fs_->GetAttrs(ino);
  clock_->Advance(1000);
  Buffer data(std::string("x"));
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  Result<InodeAttrs> written = fs_->GetAttrs(ino);
  EXPECT_GT(written->mtime_ns, created->mtime_ns);
  clock_->Advance(1000);
  Buffer out(1);
  ASSERT_TRUE(fs_->Read(ino, 0, out.mutable_span()).ok());
  Result<InodeAttrs> read = fs_->GetAttrs(ino);
  EXPECT_GT(read->atime_ns, written->atime_ns);
}

TEST_F(UfsTest, SetTimesAndSetSize) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  ASSERT_TRUE(fs_->SetTimes(ino, 111, 222).ok());
  Result<InodeAttrs> attrs = fs_->GetAttrs(ino);
  EXPECT_EQ(attrs->atime_ns, 111u);
  EXPECT_EQ(attrs->mtime_ns, 222u);
  ASSERT_TRUE(fs_->SetSize(ino, 12345).ok());
  EXPECT_EQ(fs_->GetAttrs(ino)->size, 12345u);
}

TEST_F(UfsTest, BlockGranularityAccess) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Rng rng(5);
  Buffer block = rng.RandomBuffer(kBlockSize);
  ASSERT_TRUE(fs_->WriteFileBlock(ino, 3, block.span()).ok());
  Buffer out(kBlockSize);
  ASSERT_TRUE(fs_->ReadFileBlock(ino, 3, out.mutable_span()).ok());
  EXPECT_EQ(out, block);
  // Holes read zeros.
  ASSERT_TRUE(fs_->ReadFileBlock(ino, 1, out.mutable_span()).ok());
  for (size_t i = 0; i < kBlockSize; ++i) {
    ASSERT_EQ(out.data()[i], 0);
  }
  // Block writes do not move the size; that is SetSize's job.
  EXPECT_EQ(fs_->GetAttrs(ino)->size, 0u);
}

TEST_F(UfsTest, PersistsAcrossRemount) {
  InodeNum dir = *fs_->Create(kRootInode, "docs", FileType::kDirectory);
  InodeNum ino = *fs_->Create(dir, "readme", FileType::kRegular);
  Buffer data(std::string("persistent content"));
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  fs_.reset();  // unmount

  Result<std::unique_ptr<Ufs>> remounted =
      Ufs::Mount(device_.get(), clock_.get());
  ASSERT_TRUE(remounted.ok()) << remounted.status().ToString();
  std::unique_ptr<Ufs> fs2 = remounted.take_value();
  InodeNum dir2 = *fs2->Lookup(kRootInode, "docs");
  InodeNum ino2 = *fs2->Lookup(dir2, "readme");
  EXPECT_EQ(ino2, ino);
  Buffer out(data.size());
  ASSERT_TRUE(fs2->Read(ino2, 0, out.mutable_span()).ok());
  EXPECT_EQ(out.ToString(), "persistent content");
}

TEST_F(UfsTest, MountRejectsUnformattedDevice) {
  MemBlockDevice raw(kBlockSize, 64);
  EXPECT_FALSE(Ufs::Mount(&raw).ok());
}

TEST_F(UfsTest, OneBlockJournalIsRefusedNotFatal) {
  // A log needs its head block plus at least one log block.
  MemBlockDevice small(kBlockSize, 512);
  EXPECT_EQ(Ufs::Format(&small, clock_.get(),
                        FormatOptions{.journal = true, .journal_blocks = 1})
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  // A superblock claiming such a journal is corrupt, not a crash.
  ASSERT_TRUE(
      Ufs::Format(&small, clock_.get(), FormatOptions{.journal = false}).ok());
  Buffer block(kBlockSize);
  ASSERT_TRUE(small.ReadBlock(0, block.mutable_span()).ok());
  Superblock sb = *Superblock::Decode(block.span());
  sb.jnl_blocks = 1;
  sb.Encode(block.mutable_span());
  ASSERT_TRUE(small.WriteBlock(0, block.span()).ok());
  EXPECT_EQ(Ufs::Mount(&small, clock_.get()).status().code(),
            ErrorCode::kCorrupted);
}

TEST_F(UfsTest, OutOfSpaceIsReported) {
  MemBlockDevice tiny(kBlockSize, 32);
  Result<std::unique_ptr<Ufs>> fs = Ufs::Format(&tiny, clock_.get());
  ASSERT_TRUE(fs.ok());
  InodeNum ino = *(*fs)->Create(kRootInode, "f", FileType::kRegular);
  Rng rng(6);
  Buffer big = rng.RandomBuffer(64 * kBlockSize);
  Result<size_t> written = (*fs)->Write(ino, 0, big.span());
  EXPECT_EQ(written.status().code(), ErrorCode::kNoSpace);
}

TEST_F(UfsTest, InodeCacheServesRepeatLookups) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  (void)fs_->GetAttrs(ino);
  std::map<std::string, uint64_t> before = metrics::CollectFrom(*fs_);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs_->GetAttrs(ino).ok());
  }
  std::map<std::string, uint64_t> after = metrics::CollectFrom(*fs_);
  EXPECT_EQ(after["inode_cache_misses"], before["inode_cache_misses"]);
  EXPECT_GE(after["inode_cache_hits"], before["inode_cache_hits"] + 10);
}

TEST_F(UfsTest, MetaCacheStatsCountHitsMissesAndBlocks) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Rng rng(7);
  Buffer data = rng.RandomBuffer(40 * kBlockSize);
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  fs_.reset();
  fs_ = Ufs::Mount(device_.get(), clock_.get()).take_value();

  // The mount's inode scan cached the one inode-table block in use.
  std::map<std::string, uint64_t> mounted = metrics::CollectFrom(*fs_);
  EXPECT_EQ(mounted["meta_cache_blocks"], 1u);
  Buffer out(kBlockSize);
  uint64_t reads = device_->stats().reads;
  // The first block past the direct range misses on the indirect block...
  ASSERT_TRUE(fs_->ReadFileBlock(ino, kNumDirect, out.mutable_span()).ok());
  std::map<std::string, uint64_t> first = metrics::CollectFrom(*fs_);
  EXPECT_EQ(first["meta_cache_misses"], mounted["meta_cache_misses"] + 1);
  EXPECT_EQ(first["meta_cache_blocks"], 2u);
  EXPECT_EQ(device_->stats().reads, reads + 2);
  // ...and the next one hits it: one device read, for the data alone.
  ASSERT_TRUE(
      fs_->ReadFileBlock(ino, kNumDirect + 1, out.mutable_span()).ok());
  std::map<std::string, uint64_t> second = metrics::CollectFrom(*fs_);
  EXPECT_EQ(second["meta_cache_hits"], first["meta_cache_hits"] + 1);
  EXPECT_EQ(second["meta_cache_misses"], first["meta_cache_misses"]);
  EXPECT_EQ(device_->stats().reads, reads + 3);
  // The inode counters still count inode lookups only.
  EXPECT_EQ(second["inode_cache_hits"], mounted["inode_cache_hits"] + 2);
  EXPECT_EQ(second["inode_cache_misses"], mounted["inode_cache_misses"]);

  // Freeing the indirect block evicts it.
  ASSERT_TRUE(fs_->Truncate(ino, 0).ok());
  EXPECT_EQ(metrics::StatValue(*fs_, "meta_cache_blocks"), 1u);
  ExpectClean();
}

TEST_F(UfsTest, LazyLogStatsCountCheckpointsLiveBlocksAndAbsorbedWrites) {
  ASSERT_TRUE(fs_->journaled());
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Rng rng(11);
  ASSERT_TRUE(fs_->WriteFileBlock(ino, 0, rng.RandomBuffer(kBlockSize).span())
                  .ok());
  ASSERT_TRUE(fs_->Sync().ok());
  std::map<std::string, uint64_t> synced = metrics::CollectFrom(*fs_);
  EXPECT_EQ(synced["journal_live_blocks"], 0u);

  // Overwriting allocated data logs it: the superblock, the inode-table
  // block and the data block are live after the first commit...
  ASSERT_TRUE(fs_->WriteFileBlock(ino, 0, rng.RandomBuffer(kBlockSize).span())
                  .ok());
  ASSERT_TRUE(fs_->Commit().ok());
  std::map<std::string, uint64_t> one = metrics::CollectFrom(*fs_);
  EXPECT_EQ(one["journal_commits"], synced["journal_commits"] + 1);
  EXPECT_EQ(one["journal_live_blocks"], 3u);
  EXPECT_EQ(one["journal_checkpoints"], synced["journal_checkpoints"]);
  EXPECT_EQ(one["checkpoint_writes_absorbed"],
            synced["checkpoint_writes_absorbed"]);

  // ...and a second commit of the same blocks supersedes all three, so the
  // checkpoint writes each home once.
  Buffer latest = rng.RandomBuffer(kBlockSize);
  ASSERT_TRUE(fs_->WriteFileBlock(ino, 0, latest.span()).ok());
  ASSERT_TRUE(fs_->Commit().ok());
  std::map<std::string, uint64_t> two = metrics::CollectFrom(*fs_);
  EXPECT_EQ(two["journal_live_blocks"], 3u);
  EXPECT_EQ(two["checkpoint_writes_absorbed"],
            one["checkpoint_writes_absorbed"] + 3);
  EXPECT_EQ(two["journal_overflow_syncs"], 0u);

  // The latest version lives only in the log; one device read serves it.
  Buffer out(kBlockSize);
  uint64_t reads = device_->stats().reads;
  ASSERT_TRUE(fs_->ReadFileBlock(ino, 0, out.mutable_span()).ok());
  EXPECT_EQ(device_->stats().reads, reads + 1);
  EXPECT_TRUE(out == latest);

  ASSERT_TRUE(fs_->Sync().ok());
  std::map<std::string, uint64_t> checkpointed = metrics::CollectFrom(*fs_);
  EXPECT_EQ(checkpointed["journal_checkpoints"],
            two["journal_checkpoints"] + 1);
  EXPECT_EQ(checkpointed["journal_live_blocks"], 0u);
  EXPECT_EQ(checkpointed["journal_commits"], two["journal_commits"]);

  fs_.reset();
  fs_ = Ufs::Mount(device_.get(), clock_.get()).take_value();
  ASSERT_TRUE(fs_->ReadFileBlock(ino, 0, out.mutable_span()).ok());
  EXPECT_TRUE(out == latest);
  ExpectClean();
}

TEST_F(UfsTest, CreateRollsBackWhenDirectoryCannotGrow) {
  MemBlockDevice small(kBlockSize, 512);
  std::unique_ptr<Ufs> fs = Ufs::Format(&small, clock_.get()).take_value();
  // Fill the root's first directory block (the filler file is its last
  // entry), then every free data block.
  for (uint32_t i = 0; i + 1 < kDirEntriesPerBlock; ++i) {
    ASSERT_TRUE(
        fs->Create(kRootInode, "e" + std::to_string(i), FileType::kRegular)
            .ok());
  }
  InodeNum fill = *fs->Create(kRootInode, "fill", FileType::kRegular);
  Buffer block(kBlockSize);
  for (uint64_t fb = 0; fs->FreeBlocks() > 0; ++fb) {
    ASSERT_TRUE(fs->WriteFileBlock(fill, fb, block.span()).ok());
  }

  uint64_t free_inodes = fs->FreeInodes();
  EXPECT_EQ(fs->Create(kRootInode, "straw", FileType::kRegular).status().code(),
            ErrorCode::kNoSpace);
  EXPECT_EQ(fs->FreeInodes(), free_inodes);
  EXPECT_EQ(fs->Lookup(kRootInode, "straw").status().code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(fs->Sync().ok());
  Result<CheckReport> report = Checker(&small).Check();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->Summary();
}

// --- metadata block cache, journaled and journal-less ---

// The on-disk copy of inode `ino` (valid after a Sync).
Inode DiskInode(BlockDevice& device, const Superblock& sb, InodeNum ino) {
  Buffer block(kBlockSize);
  EXPECT_TRUE(device
                  .ReadBlock(sb.itb_start + ino / kInodesPerBlock,
                             block.mutable_span())
                  .ok());
  return *Inode::Decode(
      block.subspan((ino % kInodesPerBlock) * kInodeSize, kInodeSize));
}

// The parameter is FormatOptions::journal. Device reads are counted with
// BlockDevice::stats() deltas.
class MetaCacheTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    device_ = std::make_unique<FaultyBlockDevice>(
        std::make_unique<MemBlockDevice>(kBlockSize, 1024));
    fs_ = Ufs::Format(device_.get(), &clock_,
                      FormatOptions{.journal = GetParam()})
              .take_value();
    ASSERT_EQ(fs_->journaled(), GetParam());
  }

  uint64_t DeviceReads() const { return device_->stats().reads; }

  // Unmounts (syncing), checks the image, and mounts it afresh.
  void Remount() {
    fs_.reset();
    Result<CheckReport> report = Checker(device_.get()).Check();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->clean()) << report->Summary();
    Result<std::unique_ptr<Ufs>> mounted = Ufs::Mount(device_.get(), &clock_);
    ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
    fs_ = mounted.take_value();
  }

  void ExpectContent(InodeNum ino, const Buffer& want) {
    ASSERT_EQ(fs_->GetAttrs(ino)->size, want.size());
    Buffer got(want.size());
    Result<size_t> n = fs_->Read(ino, 0, got.mutable_span());
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(*n, want.size());
    EXPECT_TRUE(got == want);
  }

  FakeClock clock_;
  std::unique_ptr<FaultyBlockDevice> device_;
  std::unique_ptr<Ufs> fs_;
};

TEST_P(MetaCacheTest, RereadCostsOneDeviceReadPerDataBlock) {
  constexpr uint64_t kBlocks = 64;  // spans the single-indirect range
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  Rng rng(8);
  Buffer data = rng.RandomBuffer(kBlocks * kBlockSize);
  ASSERT_TRUE(fs_->Write(ino, 0, data.span()).ok());
  ASSERT_TRUE(fs_->Sync().ok());

  Buffer out(kBlockSize);
  for (int pass = 0; pass < 2; ++pass) {
    uint64_t reads = DeviceReads();
    for (uint64_t fb = 0; fb < kBlocks; ++fb) {
      ASSERT_TRUE(fs_->ReadFileBlock(ino, fb, out.mutable_span()).ok());
      ASSERT_TRUE(std::equal(out.data(), out.data() + kBlockSize,
                             data.data() + fb * kBlockSize));
    }
    // The first pass may fetch the indirect block once; the second pays
    // for the data alone.
    EXPECT_LE(DeviceReads() - reads, kBlocks + 1) << "pass " << pass;
    if (pass == 1) {
      EXPECT_EQ(DeviceReads() - reads, kBlocks);
    }
  }
}

TEST_P(MetaCacheTest, SyncOfDirtyInodesReadsNothing) {
  // Enough inodes to span two inode-table blocks.
  std::vector<InodeNum> inos;
  for (uint32_t i = 0; i < kInodesPerBlock + 4; ++i) {
    inos.push_back(
        *fs_->Create(kRootInode, "f" + std::to_string(i), FileType::kRegular));
  }
  Buffer block(kBlockSize);
  for (InodeNum ino : inos) {
    ASSERT_TRUE(fs_->WriteFileBlock(ino, 0, block.span()).ok());
  }
  ASSERT_TRUE(fs_->Sync().ok());

  for (InodeNum ino : inos) {
    ASSERT_TRUE(fs_->SetTimes(ino, 1, 2).ok());
    ASSERT_TRUE(fs_->WriteFileBlock(ino, 0, block.span()).ok());
  }
  uint64_t reads = DeviceReads();
  ASSERT_TRUE(fs_->Sync().ok());
  EXPECT_EQ(DeviceReads(), reads);
  Remount();
  EXPECT_EQ(fs_->GetAttrs(inos.back())->mtime_ns, 2u);
}

TEST_P(MetaCacheTest, FreedPointerBlockReusedAsDataReadsBack) {
  constexpr uint64_t kBlocks = 40;  // 12 direct + indirect block + 28 more
  Rng rng(9);
  InodeNum ino = *fs_->Create(kRootInode, "a", FileType::kRegular);
  Buffer first = rng.RandomBuffer(kBlocks * kBlockSize);
  ASSERT_TRUE(fs_->Write(ino, 0, first.span()).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  ExpectContent(ino, first);  // caches the indirect block
  BlockNum old_indirect = DiskInode(*device_, fs_->superblock(), ino).indirect;
  ASSERT_NE(old_indirect, 0u);

  // Fill the device past `a` so the allocator's rotor sits at the last few
  // free blocks; regrowing `a` then takes those and wraps onto its own
  // freed blocks, one position later than before — the old indirect block
  // comes back as a data block.
  InodeNum filler = *fs_->Create(kRootInode, "filler", FileType::kRegular);
  Buffer block(kBlockSize);
  for (uint64_t fb = 0; fs_->FreeBlocks() > 3; ++fb) {
    ASSERT_TRUE(fs_->WriteFileBlock(filler, fb, block.span()).ok());
  }
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->Truncate(ino, 0).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  Buffer second = rng.RandomBuffer(kBlocks * kBlockSize);
  ASSERT_TRUE(fs_->Write(ino, 0, second.span()).ok());
  ExpectContent(ino, second);
  ASSERT_TRUE(fs_->Sync().ok());
  ExpectContent(ino, second);

  Inode regrown = DiskInode(*device_, fs_->superblock(), ino);
  ASSERT_NE(regrown.indirect, 0u);
  ASSERT_NE(regrown.indirect, old_indirect);
  Buffer pointers(kBlockSize);
  ASSERT_TRUE(
      device_->ReadBlock(regrown.indirect, pointers.mutable_span()).ok());
  bool reused_as_data = false;
  for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
    reused_as_data |= GetU64(pointers.data() + 8 * i) == old_indirect;
  }
  for (uint64_t direct : regrown.direct) {
    reused_as_data |= direct == old_indirect;
  }
  EXPECT_TRUE(reused_as_data) << "block " << old_indirect;

  Remount();
  ExpectContent(ino, second);
}

TEST_P(MetaCacheTest, FailedSyncRetryPersistsWhatTheCacheServed) {
  InodeNum dir = *fs_->Create(kRootInode, "d", FileType::kDirectory);
  Rng rng(10);
  std::map<std::string, Buffer> model;
  for (int i = 0; i < 4; ++i) {
    std::string name = "f" + std::to_string(i);
    model[name] = rng.RandomBuffer((20 + i) * kBlockSize + 100);
    InodeNum ino = *fs_->Create(dir, name, FileType::kRegular);
    ASSERT_TRUE(fs_->Write(ino, 0, model[name].span()).ok());
  }
  ASSERT_TRUE(fs_->Sync().ok());

  // Change every kind of cached metadata: pointer blocks (writes past the
  // direct range), directory blocks, inode-table blocks.
  for (auto& [name, content] : model) {
    InodeNum ino = *fs_->Lookup(dir, name);
    Buffer patch = rng.RandomBuffer(3 * kBlockSize);
    ASSERT_TRUE(fs_->Write(ino, content.size(), patch.span()).ok());
    content.append(patch.span());
    ExpectContent(ino, content);
  }
  ASSERT_TRUE(fs_->Remove(dir, "f0").ok());
  model.erase("f0");
  model["g"] = rng.RandomBuffer(15 * kBlockSize);
  InodeNum g = *fs_->Create(dir, "g", FileType::kRegular);
  ASSERT_TRUE(fs_->Write(g, 0, model["g"].span()).ok());

  // Fail the Sync part-way through its writes, then retry it.
  int writes = 0;
  device_->set_predicate(
      [&writes](int op, BlockNum) { return op == 1 && ++writes == 3; });
  EXPECT_EQ(fs_->Sync().code(), ErrorCode::kIoError);
  device_->set_predicate(nullptr);
  for (const auto& [name, content] : model) {
    ExpectContent(*fs_->Lookup(dir, name), content);
  }
  ASSERT_TRUE(fs_->Sync().ok());

  Remount();
  Result<std::vector<NamedEntry>> listing = fs_->ReadDir(dir);
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), model.size());
  for (const auto& [name, content] : model) {
    Result<InodeNum> ino = fs_->Lookup(dir, name);
    ASSERT_TRUE(ino.ok()) << name;
    ExpectContent(*ino, content);
  }
}

TEST_P(MetaCacheTest, FailedWriteIsNotServedFromTheCache) {
  // Cache the root's directory block.
  ASSERT_TRUE(fs_->Create(kRootInode, "a", FileType::kRegular).ok());
  ASSERT_TRUE(fs_->Sync().ok());
  ASSERT_TRUE(fs_->ReadDir(kRootInode).ok());

  // Journal-less, the new entry's directory-block write reaches the device
  // and fails, so Create fails; journaled, it only joins the open
  // transaction.
  bool failed_once = false;
  device_->set_predicate([&failed_once](int op, BlockNum) {
    return op == 1 && !std::exchange(failed_once, true);
  });
  Result<InodeNum> created =
      fs_->Create(kRootInode, "b", FileType::kRegular);
  device_->set_predicate(nullptr);
  EXPECT_EQ(created.ok(), GetParam());
  Result<std::vector<NamedEntry>> listing = fs_->ReadDir(kRootInode);
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_EQ(listing->size(), GetParam() ? 2u : 1u);
  Remount();
  EXPECT_EQ(fs_->Lookup(kRootInode, "b").ok(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(JournalOnOff, MetaCacheTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Journaled" : "JournalLess";
                         });

// --- checker corruption detection ---

TEST_F(UfsTest, CheckerDetectsCorruptSuperblock) {
  ASSERT_TRUE(fs_->Sync().ok());
  Buffer block(kBlockSize);
  ASSERT_TRUE(device_->ReadBlock(0, block.mutable_span()).ok());
  block.data()[8] ^= 0xFF;  // flip bits in num_blocks
  ASSERT_TRUE(device_->WriteBlock(0, block.span()).ok());
  Checker checker(device_.get());
  Result<CheckReport> report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
}

TEST_F(UfsTest, CheckerDetectsLinkCountMismatch) {
  InodeNum ino = *fs_->Create(kRootInode, "f", FileType::kRegular);
  ASSERT_TRUE(fs_->Sync().ok());
  // Corrupt the inode's nlink directly on disk (re-encode with valid CRC).
  const Superblock& sb = fs_->superblock();
  BlockNum itb_block = sb.itb_start + ino / kInodesPerBlock;
  Buffer block(kBlockSize);
  ASSERT_TRUE(device_->ReadBlock(itb_block, block.mutable_span()).ok());
  size_t slot = (ino % kInodesPerBlock) * kInodeSize;
  Inode inode = *Inode::Decode(block.subspan(slot, kInodeSize));
  inode.nlink = 5;
  inode.Encode(block.mutable_span().subspan(slot, kInodeSize));
  ASSERT_TRUE(device_->WriteBlock(itb_block, block.span()).ok());

  Checker checker(device_.get());
  Result<CheckReport> report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
}

// --- property test: random workload vs. in-memory reference model ---

struct RefFile {
  Buffer content;
};

class UfsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UfsPropertyTest, RandomWorkloadMatchesReferenceModel) {
  MemBlockDevice device(kBlockSize, 8192);
  FakeClock clock;
  std::unique_ptr<Ufs> fs = Ufs::Format(&device, &clock).take_value();
  Rng rng(GetParam());

  std::map<std::string, RefFile> model;
  auto pick_existing = [&]() -> std::string {
    if (model.empty()) {
      return "";
    }
    auto it = model.begin();
    std::advance(it, rng.Below(model.size()));
    return it->first;
  };

  for (int step = 0; step < 400; ++step) {
    uint64_t action = rng.Below(100);
    if (action < 25) {  // create
      std::string name = "f" + std::to_string(rng.Below(40));
      Result<InodeNum> ino = fs->Create(kRootInode, name, FileType::kRegular);
      if (model.count(name)) {
        EXPECT_EQ(ino.status().code(), ErrorCode::kAlreadyExists);
      } else {
        ASSERT_TRUE(ino.ok()) << ino.status().ToString();
        model[name] = RefFile{};
      }
    } else if (action < 50) {  // write
      std::string name = pick_existing();
      if (name.empty()) {
        continue;
      }
      uint64_t offset = rng.Below(3 * kBlockSize);
      Buffer data = rng.RandomBuffer(rng.Range(1, 2 * kBlockSize));
      InodeNum ino = *fs->Lookup(kRootInode, name);
      ASSERT_TRUE(fs->Write(ino, offset, data.span()).ok());
      model[name].content.WriteAt(offset, data.span());
    } else if (action < 70) {  // read and compare
      std::string name = pick_existing();
      if (name.empty()) {
        continue;
      }
      InodeNum ino = *fs->Lookup(kRootInode, name);
      const Buffer& ref = model[name].content;
      uint64_t offset = rng.Below(4 * kBlockSize);
      size_t len = rng.Range(1, 2 * kBlockSize);
      Buffer got(len);
      Result<size_t> n = fs->Read(ino, offset, got.mutable_span());
      ASSERT_TRUE(n.ok());
      Buffer expect(len);
      size_t ref_n = ref.ReadAt(offset, expect.mutable_span());
      ASSERT_EQ(*n, ref_n);
      EXPECT_EQ(ByteSpan(got.data(), *n).size(),
                ByteSpan(expect.data(), ref_n).size());
      EXPECT_TRUE(std::equal(got.data(), got.data() + *n, expect.data()));
    } else if (action < 85) {  // truncate
      std::string name = pick_existing();
      if (name.empty()) {
        continue;
      }
      InodeNum ino = *fs->Lookup(kRootInode, name);
      uint64_t new_size = rng.Below(4 * kBlockSize);
      ASSERT_TRUE(fs->Truncate(ino, new_size).ok());
      Buffer& ref = model[name].content;
      if (new_size <= ref.size()) {
        Buffer shrunk(new_size);
        ref.ReadAt(0, shrunk.mutable_span());
        ref = shrunk;
      } else {
        ref.resize(new_size);
      }
    } else {  // remove
      std::string name = pick_existing();
      if (name.empty()) {
        continue;
      }
      ASSERT_TRUE(fs->Remove(kRootInode, name).ok());
      model.erase(name);
    }
  }

  // Final full comparison plus an on-disk consistency check.
  for (const auto& [name, ref] : model) {
    InodeNum ino = *fs->Lookup(kRootInode, name);
    Result<InodeAttrs> attrs = fs->GetAttrs(ino);
    ASSERT_TRUE(attrs.ok());
    EXPECT_EQ(attrs->size, ref.content.size()) << name;
    Buffer got(ref.content.size());
    if (!got.empty()) {
      ASSERT_TRUE(fs->Read(ino, 0, got.mutable_span()).ok());
      EXPECT_EQ(Fnv1a64(got.span()), Fnv1a64(ref.content.span())) << name;
    }
  }
  ASSERT_TRUE(fs->Sync().ok());
  Checker checker(&device);
  Result<CheckReport> report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, UfsPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1234, 99991));

}  // namespace
}  // namespace springfs::ufs
