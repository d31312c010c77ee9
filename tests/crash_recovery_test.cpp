// Crash-consistency property suite for the UFS write-ahead journal.
//
// The harness runs a seeded random workload against a journaled UFS on a
// FaultyBlockDevice, replays the identical workload with a CrashPlan armed
// to "lose power" at a seeded-random device write, then recovers: discard
// the dead mount, clear the crash, remount (which replays the journal), and
// assert that (a) the fsck-style checker finds a clean file system and
// (b) the recovered state is byte-identical to the workload model at the
// transaction the journal says survived. Every failure prints its seed; a
// failing run is reproducible from that seed alone.
//
// A control suite formats without the journal and asserts the same harness
// detects corruption — proof the crash model has teeth.
//
// Three workload shapes run through the harness: small files that stay in
// the direct blocks, and files whose writes and truncates cross into the
// single- and double-indirect ranges, so crash points land on journaled
// pointer blocks — both making every change durable with Sync (commit plus
// checkpoint) — and small files made durable with Commit, syncing only now
// and then, in a small log: many transactions stay live in the log, and
// crash points land mid-commit, mid-checkpoint (log-full and Sync), and
// right after a checkpoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/blockdev/decorators.h"
#include "src/obs/flight_recorder.h"
#include "src/support/rng.h"
#include "src/ufs/checker.h"
#include "src/ufs/journal.h"
#include "src/ufs/ufs.h"

namespace springfs {
namespace {

using ufs::kBlockSize;
using ufs::kNumDirect;
using ufs::kPtrsPerBlock;
using ufs::kRootInode;

constexpr uint64_t kDevBlocks = 1024;
constexpr int kSteps = 60;

// One file's expected content: its size plus the blocks ever written, so a
// sparse file reaching into the double-indirect range costs the model only
// the blocks it holds.
struct FileModel {
  uint64_t size = 0;
  std::map<uint64_t, Buffer> blocks;  // file block -> kBlockSize bytes

  void Write(uint64_t offset, ByteSpan data) {
    for (size_t done = 0; done < data.size();) {
      uint64_t at = offset + done;
      size_t in_block = at % kBlockSize;
      size_t chunk = std::min<size_t>(kBlockSize - in_block, data.size() - done);
      Buffer& block = blocks[at / kBlockSize];
      block.resize(kBlockSize);
      std::memcpy(block.data() + in_block, data.data() + done, chunk);
      done += chunk;
    }
    size = std::max<uint64_t>(size, offset + data.size());
  }

  // Like Ufs::Truncate: shrinking drops whole blocks past the new end and
  // zeroes the tail of the new last block; growing adds a hole.
  void Resize(uint64_t new_size) {
    if (new_size < size) {
      blocks.erase(blocks.lower_bound((new_size + kBlockSize - 1) / kBlockSize),
                   blocks.end());
      auto last = blocks.find(new_size / kBlockSize);
      if (last != blocks.end()) {
        size_t keep = new_size % kBlockSize;
        std::memset(last->second.data() + keep, 0, kBlockSize - keep);
      }
    }
    size = new_size;
  }

  // Bytes [offset, offset + out.size()); zeros in holes.
  void Read(uint64_t offset, MutableByteSpan out) const {
    std::memset(out.data(), 0, out.size());
    for (auto it = blocks.lower_bound(offset / kBlockSize);
         it != blocks.end() && it->first * kBlockSize < offset + out.size();
         ++it) {
      uint64_t block_start = it->first * kBlockSize;
      uint64_t lo = std::max(offset, block_start);
      uint64_t hi = std::min(offset + out.size(), block_start + kBlockSize);
      std::memcpy(out.data() + (lo - offset),
                  it->second.data() + (lo - block_start), hi - lo);
    }
  }
};

// name -> file content; the workload's in-memory truth.
using Model = std::map<std::string, FileModel>;

// How many files a workload keeps, where it writes, how much, and how far
// it truncates. Each draws from the workload's rng, so a shape replays
// exactly from its seed. A lazy shape's sync steps Commit, and Sync one
// time in eight (one more rng draw per sync step).
struct Shape {
  size_t max_files;  // at this many, a create step writes instead
  uint64_t (*write_offset)(Rng& rng);
  uint64_t max_write;  // bytes
  uint64_t (*truncate_size)(Rng& rng);
  bool lazy = false;
  uint64_t journal_blocks = 0;  // FormatOptions::journal_blocks
};

// Small files: every byte lives in the direct blocks.
const Shape kDirectShape = {
    SIZE_MAX,
    [](Rng& rng) { return rng.Below(4 * kBlockSize); },
    2 * kBlockSize,
    [](Rng& rng) { return rng.Below(3 * kBlockSize); },
};

// A few files past the direct blocks. Writes and truncate points fall in
// the same three places: the direct blocks, the start of the
// single-indirect range, and (sparsely) the start of the first two
// second-level blocks of the double-indirect range. Shrinking then frees
// pointer blocks across both boundaries, and often frees part of a pointer
// block, which rewrites it.
constexpr uint64_t kDoubleStart = kNumDirect + kPtrsPerBlock;
uint64_t PointerShapeOffset(Rng& rng) {
  uint64_t block = 0;
  switch (rng.Below(4)) {
    case 0:
      block = rng.Below(kNumDirect);
      break;
    case 1:
    case 2:
      block = kNumDirect + rng.Below(16);
      break;
    default:
      block = kDoubleStart + rng.Below(2) * kPtrsPerBlock + rng.Below(8);
      break;
  }
  return block * kBlockSize + rng.Below(kBlockSize);
}
const Shape kPointerShape = {3, PointerShapeOffset, 6 * kBlockSize,
                             PointerShapeOffset};

// kDirectShape's files, made durable lazily in a 24-block log: a
// checkpoint every few commits, most of them because the log is full.
const Shape kLazyLogShape = [] {
  Shape shape = kDirectShape;
  shape.lazy = true;
  shape.journal_blocks = 24;
  return shape;
}();

std::unique_ptr<FaultyBlockDevice> MakeDevice() {
  return std::make_unique<FaultyBlockDevice>(
      std::make_unique<MemBlockDevice>(kBlockSize, kDevBlocks));
}

// Runs the seeded workload. Snapshots the model keyed by the journal
// transaction that persists it: before each Commit or Sync the upcoming
// transaction id is last_committed_tx() + 1. `before_sync`, when set, runs
// before each Commit or Sync. Returns false when the device crashed
// mid-workload (the armed run); the dry run always returns true.
bool RunWorkload(ufs::Ufs* fs, const Shape& shape, uint64_t seed,
                 std::map<uint64_t, Model>* snapshots,
                 const std::function<void()>& before_sync = nullptr) {
  Rng rng(seed);
  Model model;
  if (snapshots != nullptr) {
    (*snapshots)[fs->last_committed_tx()] = model;  // post-format state
  }
  auto make_durable = [&](bool full) {
    if (snapshots != nullptr) {
      (*snapshots)[fs->last_committed_tx() + 1] = model;
    }
    if (before_sync) {
      before_sync();
    }
    return (full ? fs->Sync() : fs->Commit()).ok();
  };
  int next_file = 0;
  std::vector<std::string> names;
  for (int step = 0; step < kSteps; ++step) {
    uint64_t dice = rng.Below(100);
    if ((dice < 25 && names.size() < shape.max_files) || names.empty()) {
      std::string name = "f" + std::to_string(next_file++);
      if (!fs->Create(kRootInode, name, ufs::FileType::kRegular).ok()) {
        return false;
      }
      names.push_back(name);
      model[name] = FileModel();
    } else if (dice < 60) {
      const std::string& name = names[rng.Below(names.size())];
      uint64_t offset = shape.write_offset(rng);
      Buffer data(rng.Range(1, shape.max_write));
      rng.Fill(data.mutable_span());
      ufs::InodeNum ino = 0;
      {
        auto looked = fs->Lookup(kRootInode, name);
        if (!looked.ok()) {
          return false;
        }
        ino = *looked;
      }
      if (!fs->Write(ino, offset, data.span()).ok()) {
        return false;
      }
      model[name].Write(offset, data.span());
    } else if (dice < 70) {
      const std::string& name = names[rng.Below(names.size())];
      auto looked = fs->Lookup(kRootInode, name);
      if (!looked.ok()) {
        return false;
      }
      uint64_t new_size = shape.truncate_size(rng);
      if (!fs->Truncate(*looked, new_size).ok()) {
        return false;
      }
      model[name].Resize(new_size);
    } else if (dice < 80) {
      size_t pick = rng.Below(names.size());
      std::string name = names[pick];
      if (!fs->Remove(kRootInode, name).ok()) {
        return false;
      }
      names.erase(names.begin() + pick);
      model.erase(name);
    } else if (!make_durable(!shape.lazy || rng.Below(8) == 0)) {
      return false;
    }
  }
  return make_durable(true);
}

// The device writes of an unarmed run, in order, and the index of the
// first write of each Commit or Sync call.
struct WriteTrace {
  std::vector<BlockNum> blocks;
  std::vector<size_t> call_starts;
  BlockNum jnl_start = 0;
};

// Phase one of the harness: run the workload unarmed and count the device
// writes it performs after format, so the crash point can be placed
// uniformly among them. With `trace`, also records every write's block.
uint64_t CountWorkloadWrites(const Shape& shape, uint64_t seed, bool journal,
                             WriteTrace* trace = nullptr) {
  auto device = MakeDevice();
  auto fs = ufs::Ufs::Format(device.get(), &DefaultClock(),
                             ufs::FormatOptions{journal, shape.journal_blocks});
  EXPECT_TRUE(fs.ok());
  if (!fs.ok()) {
    return 0;
  }
  std::function<void()> before_sync;
  if (trace != nullptr) {
    trace->jnl_start = (*fs)->superblock().jnl_start();
    device->set_predicate([trace](int op, BlockNum block) {
      if (op == 1) {
        trace->blocks.push_back(block);
      }
      return false;
    });
    before_sync = [trace] {
      trace->call_starts.push_back(trace->blocks.size());
    };
  }
  uint64_t before = device->stats().writes;
  EXPECT_TRUE(RunWorkload(fs->get(), shape, seed, nullptr, before_sync));
  EXPECT_EQ(metrics::StatValue(**fs, "journal_overflow_syncs"), 0u);
  uint64_t writes = device->stats().writes - before;
  (*fs)->Abandon();  // already synced; skip the unmount sync
  return writes;
}

// Where a crash point falls in a journaled run.
enum class Window {
  kInPlace,          // an ordered (in-place) data write
  kCommit,           // a log write: header, descriptor or payload
  kLogFullCheckpoint,
  kSyncCheckpoint,
  kAfterCheckpoint,  // the first write after a checkpoint's head write
  kCount,
};

// Classifies the `k`th write (1-based) of a traced run. A checkpoint is the
// run of home writes ending in a log-head write (the device's last block);
// it is log-full when its own call goes on to write the log.
Window Classify(const WriteTrace& trace, uint64_t k) {
  const BlockNum head = kDevBlocks - 1;
  auto in_log = [&](BlockNum b) { return b >= trace.jnl_start && b < head; };
  size_t i = k - 1;
  if (i > 0 && trace.blocks[i - 1] == head) {
    return Window::kAfterCheckpoint;
  }
  if (in_log(trace.blocks[i])) {
    return Window::kCommit;
  }
  size_t call_end = trace.blocks.size();
  for (size_t start : trace.call_starts) {
    if (start > i) {
      call_end = start;
      break;
    }
  }
  for (size_t j = i; j < call_end; ++j) {
    if (in_log(trace.blocks[j])) {
      return Window::kInPlace;
    }
    if (trace.blocks[j] == head) {
      for (size_t m = j + 1; m < call_end; ++m) {
        if (in_log(trace.blocks[m])) {
          return Window::kLogFullCheckpoint;
        }
      }
      return Window::kSyncCheckpoint;
    }
  }
  return Window::kInPlace;
}

// Verifies the recovered file system matches `want` exactly: same directory
// listing, same sizes, same bytes (compared a chunk at a time).
void ExpectMatchesModel(ufs::Ufs* fs, const Model& want) {
  auto listing = fs->ReadDir(kRootInode);
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  std::set<std::string> got_names;
  for (const auto& entry : *listing) {
    got_names.insert(entry.name);
  }
  std::set<std::string> want_names;
  for (const auto& [name, content] : want) {
    want_names.insert(name);
  }
  EXPECT_EQ(got_names, want_names);
  for (const auto& [name, content] : want) {
    auto looked = fs->Lookup(kRootInode, name);
    ASSERT_TRUE(looked.ok()) << "lost file " << name;
    auto attrs = fs->GetAttrs(*looked);
    ASSERT_TRUE(attrs.ok());
    ASSERT_EQ(attrs->size, content.size) << "size of " << name;
    constexpr uint64_t kChunk = 64 * kBlockSize;
    for (uint64_t offset = 0; offset < content.size; offset += kChunk) {
      size_t len = std::min(kChunk, content.size - offset);
      Buffer got(len);
      auto n = fs->Read(*looked, offset, got.mutable_span());
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_EQ(*n, len);
      Buffer want_bytes(len);
      content.Read(offset, want_bytes.mutable_span());
      ASSERT_TRUE(got == want_bytes)
          << "content of " << name << " at offset " << offset;
    }
  }
}

// One full crash/recovery property check for one seed. Reports the window
// its crash point fell in through `window`.
void RunCrashSeed(const Shape& shape, uint64_t seed, Window* window) {
  // Per-seed black box (see tests/chaos_dfs_test.cpp): a failure dump below
  // then shows only this seed's journal/crash events.
  flight::Clear();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  WriteTrace trace;
  uint64_t writes = CountWorkloadWrites(shape, seed, /*journal=*/true, &trace);
  ASSERT_GT(writes, 0u);
  ASSERT_EQ(trace.blocks.size(), writes);

  Rng pick(seed ^ 0xC0FFEE);
  CrashPlan plan;
  plan.crash_after_writes = pick.Range(1, writes);
  plan.seed = seed;
  if (shape.lazy) {
    // Aim at one window per seed, round robin, so every shard reaches the
    // rare ones (a checkpoint's head write, the write right after it).
    auto want = static_cast<Window>(seed % static_cast<int>(Window::kCount));
    std::vector<uint64_t> candidates;
    for (uint64_t k = 1; k <= writes; ++k) {
      if (Classify(trace, k) == want) {
        candidates.push_back(k);
      }
    }
    if (!candidates.empty()) {
      plan.crash_after_writes = candidates[pick.Below(candidates.size())];
    }
  }
  *window = Classify(trace, plan.crash_after_writes);

  auto device = MakeDevice();
  auto formatted = ufs::Ufs::Format(
      device.get(), &DefaultClock(),
      ufs::FormatOptions{/*journal=*/true, shape.journal_blocks});
  ASSERT_TRUE(formatted.ok());
  std::map<uint64_t, Model> snapshots;
  device->ArmCrash(plan);
  bool completed = RunWorkload(formatted->get(), shape, seed, &snapshots);
  ASSERT_FALSE(completed) << "workload survived the planned crash";
  ASSERT_TRUE(device->crashed());

  // Abandon the dead mount, restore power, and remount: Mount replays every
  // committed transaction still in the log.
  (*formatted)->Abandon();
  formatted->reset();
  device->RecoverAfterCrash();
  auto recovered = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // (a) fsck-clean at the crash point.
  ufs::Checker checker(device.get());
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();

  // (b) the recovered image is exactly the model at the surviving
  // transaction — no torn syncs, no lost synced data.
  uint64_t tx = (*recovered)->last_committed_tx();
  auto snap = snapshots.find(tx);
  ASSERT_TRUE(snap != snapshots.end())
      << "recovered tx " << tx << " matches no pre-crash sync";
  ExpectMatchesModel(recovered->get(), snap->second);

  // The recovered file system is writable and stays clean.
  ASSERT_TRUE((*recovered)->Create(kRootInode, "post-crash",
                                   ufs::FileType::kRegular).ok());
  ASSERT_TRUE((*recovered)->Sync().ok());
  auto report2 = checker.Check();
  ASSERT_TRUE(report2.ok());
  EXPECT_TRUE(report2->clean()) << report2->Summary();
}

// The same crash applied to a journal-less format: returns true when the
// harness catches the damage (unmountable image or checker errors).
bool CrashWithoutJournalIsDetected(const Shape& shape, uint64_t seed) {
  uint64_t writes = CountWorkloadWrites(shape, seed, /*journal=*/false);
  if (writes == 0) {
    return false;
  }
  Rng pick(seed ^ 0xC0FFEE);
  CrashPlan plan;
  plan.crash_after_writes = pick.Range(1, writes);
  plan.seed = seed;

  auto device = MakeDevice();
  auto formatted = ufs::Ufs::Format(
      device.get(), &DefaultClock(),
      ufs::FormatOptions{/*journal=*/false, shape.journal_blocks});
  EXPECT_TRUE(formatted.ok());
  device->ArmCrash(plan);
  (void)RunWorkload(formatted->get(), shape, seed, nullptr);
  (*formatted)->Abandon();
  formatted->reset();
  device->RecoverAfterCrash();

  auto recovered = ufs::Ufs::Mount(device.get());
  if (!recovered.ok()) {
    return true;  // superblock torn beyond recognition
  }
  ufs::Checker checker(device.get());
  auto report = checker.Check();
  return !report.ok() || !report->clean();
}

// --- Journal unit tests ---

TEST(Journal, CommitThenReplayRestoresHomes) {
  MemBlockDevice device(kBlockSize, 64);
  uint64_t jnl_start = 48;
  ufs::Journal journal(&device, jnl_start);

  std::map<BlockNum, Buffer> tx;
  Rng rng(7);
  for (BlockNum b : {5u, 9u, 17u}) {
    Buffer content(kBlockSize);
    rng.Fill(content.mutable_span());
    ASSERT_TRUE(device.WriteBlock(b, content.span()).ok());
    tx[b] = std::move(content);
  }
  ASSERT_TRUE(journal.Commit(3, tx).ok());

  // Scribble over the home locations, as a crash mid-checkpoint would.
  Buffer junk(kBlockSize);
  rng.Fill(junk.mutable_span());
  for (const auto& [b, content] : tx) {
    ASSERT_TRUE(device.WriteBlock(b, junk.span()).ok());
  }

  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 3u);
  EXPECT_EQ(report->blocks_replayed, 3u);
  Buffer got(kBlockSize);
  for (const auto& [b, content] : tx) {
    ASSERT_TRUE(device.ReadBlock(b, got.mutable_span()).ok());
    EXPECT_TRUE(got == content) << "home block " << b;
  }

  // Replay is idempotent.
  auto again = ufs::Journal::Replay(&device);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->tx_id, 3u);
}

TEST(Journal, TornPayloadInvalidatesWholeTransaction) {
  MemBlockDevice device(kBlockSize, 64);
  ufs::Journal journal(&device, 48);
  std::map<BlockNum, Buffer> tx;
  Buffer content(kBlockSize);
  Rng rng(11);
  rng.Fill(content.mutable_span());
  tx[5] = content;
  ASSERT_TRUE(journal.Commit(1, tx).ok());

  // Flip one byte of the journaled payload: the transaction header still
  // verifies, but the payload tag must not, so nothing is replayed.
  BlockNum payload_block = journal.LiveSlot(5);
  ASSERT_NE(payload_block, 5u);
  Buffer payload(kBlockSize);
  ASSERT_TRUE(device.ReadBlock(payload_block, payload.mutable_span()).ok());
  payload.data()[100] ^= 0xFF;
  ASSERT_TRUE(device.WriteBlock(payload_block, payload.span()).ok());

  Buffer junk(kBlockSize);
  rng.Fill(junk.mutable_span());
  ASSERT_TRUE(device.WriteBlock(5, junk.span()).ok());
  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 0u);
  Buffer got(kBlockSize);
  ASSERT_TRUE(device.ReadBlock(5, got.mutable_span()).ok());
  EXPECT_TRUE(got == junk);  // home untouched
}

TEST(Journal, EmptyDeviceTailReplaysNothing) {
  MemBlockDevice device(kBlockSize, 64);
  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 0u);
  EXPECT_EQ(report->blocks_replayed, 0u);
}

TEST(Journal, FitsAccountsForDescriptorsAndCommit) {
  MemBlockDevice device(kBlockSize, 64);
  ufs::Journal journal(&device, 52);  // 12 journal blocks
  // 1 commit + 1 descriptor block covers up to 10 payloads.
  EXPECT_TRUE(journal.Fits(10));
  EXPECT_FALSE(journal.Fits(11));
  std::map<BlockNum, Buffer> too_big;
  for (BlockNum b = 1; b <= 11; ++b) {
    too_big[b] = Buffer(kBlockSize);
  }
  EXPECT_EQ(journal.Commit(1, too_big).code(), ErrorCode::kNoSpace);
}

// Commits `tx` (home -> content) to `journal`, asserting success.
void CommitOk(ufs::Journal& journal, uint64_t tx_id,
              const std::map<BlockNum, Buffer>& tx) {
  ASSERT_TRUE(journal.Commit(tx_id, tx).ok()) << "tx " << tx_id;
}

// Fills `home` with fresh random bytes straight on the device (a crash
// mid-checkpoint, or newer in-place data) and returns them.
Buffer Scribble(BlockDevice& device, BlockNum home, Rng& rng) {
  Buffer junk(kBlockSize);
  rng.Fill(junk.mutable_span());
  EXPECT_TRUE(device.WriteBlock(home, junk.span()).ok());
  return junk;
}

Buffer ReadHome(BlockDevice& device, BlockNum home) {
  Buffer got(kBlockSize);
  EXPECT_TRUE(device.ReadBlock(home, got.mutable_span()).ok());
  return got;
}

TEST(Journal, ThreeCommittedTransactionsReplayInOrder) {
  MemBlockDevice device(kBlockSize, 64);
  ufs::Journal journal(&device, 40);
  Rng rng(5);
  std::map<BlockNum, Buffer> tx1, tx2, tx3;
  tx1[5] = rng.RandomBuffer(kBlockSize);
  tx1[9] = rng.RandomBuffer(kBlockSize);
  tx2[5] = rng.RandomBuffer(kBlockSize);
  tx3[9] = rng.RandomBuffer(kBlockSize);
  tx3[17] = rng.RandomBuffer(kBlockSize);
  CommitOk(journal, 7, tx1);
  CommitOk(journal, 8, tx2);
  CommitOk(journal, 9, tx3);
  EXPECT_EQ(journal.live_blocks(), 3u);
  EXPECT_EQ(journal.writes_absorbed(), 2u);  // 5 and 9 were superseded
  for (BlockNum home : {5u, 9u, 17u}) {
    Scribble(device, home, rng);
  }

  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 9u);
  EXPECT_EQ(report->blocks_replayed, 3u);
  // The latest committed version of each block wins.
  EXPECT_TRUE(ReadHome(device, 5) == tx2[5]);
  EXPECT_TRUE(ReadHome(device, 9) == tx3[9]);
  EXPECT_TRUE(ReadHome(device, 17) == tx3[17]);
}

TEST(Journal, TornMiddleTransactionStopsTheScan) {
  MemBlockDevice device(kBlockSize, 64);
  ufs::Journal journal(&device, 40);
  Rng rng(6);
  std::map<BlockNum, Buffer> tx1, tx2, tx3;
  tx1[5] = rng.RandomBuffer(kBlockSize);
  tx2[9] = rng.RandomBuffer(kBlockSize);
  tx2[11] = rng.RandomBuffer(kBlockSize);
  tx3[17] = rng.RandomBuffer(kBlockSize);
  CommitOk(journal, 1, tx1);
  CommitOk(journal, 2, tx2);
  CommitOk(journal, 3, tx3);

  // Tear one payload of tx 2: its header still verifies, its tag does not.
  BlockNum torn = journal.LiveSlot(11);
  Buffer payload = ReadHome(device, torn);
  payload.data()[7] ^= 0x5A;
  ASSERT_TRUE(device.WriteBlock(torn, payload.span()).ok());
  Buffer home9 = Scribble(device, 9, rng);
  Buffer home17 = Scribble(device, 17, rng);
  Scribble(device, 5, rng);

  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 1u);
  EXPECT_EQ(report->blocks_replayed, 1u);
  EXPECT_TRUE(ReadHome(device, 5) == tx1[5]);
  // Neither the torn transaction nor the valid one after it is applied.
  EXPECT_TRUE(ReadHome(device, 9) == home9);
  EXPECT_TRUE(ReadHome(device, 17) == home17);
}

TEST(Journal, RecordsFromBeforeACheckpointAreNeverReplayed) {
  MemBlockDevice device(kBlockSize, 64);
  ufs::Journal journal(&device, 40);
  Rng rng(8);
  std::map<BlockNum, Buffer> big, small;
  for (BlockNum home = 1; home <= 8; ++home) {
    big[home] = rng.RandomBuffer(kBlockSize);
  }
  CommitOk(journal, 1, big);
  ASSERT_TRUE(journal.Checkpoint().ok());
  EXPECT_EQ(journal.checkpoints(), 1u);
  EXPECT_EQ(journal.live_blocks(), 0u);
  for (const auto& [home, content] : big) {
    EXPECT_TRUE(ReadHome(device, home) == content) << "home " << home;
  }
  // Nothing live: newer in-place data survives a replay.
  Buffer newer = Scribble(device, 3, rng);
  auto none = ufs::Journal::Replay(&device);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->tx_id, 0u);
  EXPECT_TRUE(ReadHome(device, 3) == newer);

  // The next transaction reuses the log from its start, overwriting only
  // the first of tx 1's slots; tx 1's stale payloads stay behind it.
  small[20] = rng.RandomBuffer(kBlockSize);
  CommitOk(journal, 2, small);
  Buffer newer6 = Scribble(device, 6, rng);
  auto report = ufs::Journal::Replay(&device);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tx_id, 2u);
  EXPECT_EQ(report->blocks_replayed, 1u);
  EXPECT_TRUE(ReadHome(device, 20) == small[20]);
  EXPECT_TRUE(ReadHome(device, 3) == newer);
  EXPECT_TRUE(ReadHome(device, 6) == newer6);
}

TEST(Journal, ReplayIsIdempotent) {
  MemBlockDevice device(kBlockSize, 64);
  ufs::Journal journal(&device, 40);
  Rng rng(9);
  std::map<BlockNum, Buffer> tx1, tx2;
  tx1[5] = rng.RandomBuffer(kBlockSize);
  tx1[9] = rng.RandomBuffer(kBlockSize);
  tx2[5] = rng.RandomBuffer(kBlockSize);
  CommitOk(journal, 1, tx1);
  CommitOk(journal, 2, tx2);
  Scribble(device, 5, rng);
  Scribble(device, 9, rng);

  auto image = [&] {
    Buffer all;
    for (BlockNum b = 0; b < device.num_blocks(); ++b) {
      all.append(ReadHome(device, b).span());
    }
    return all;
  };
  auto first = ufs::Journal::Replay(&device);
  ASSERT_TRUE(first.ok());
  Buffer after_first = image();
  auto second = ufs::Journal::Replay(&device);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->tx_id, first->tx_id);
  EXPECT_EQ(second->blocks_replayed, first->blocks_replayed);
  EXPECT_TRUE(image() == after_first);
  EXPECT_TRUE(ReadHome(device, 5) == tx2[5]);
  EXPECT_TRUE(ReadHome(device, 9) == tx1[9]);
}

// --- CrashPlan unit tests ---

TEST(CrashPlan, ArmedDeviceBuffersWritesUntilFlush) {
  auto device = MakeDevice();
  Buffer data(kBlockSize);
  data.data()[0] = 0xAB;
  device->ArmCrash(CrashPlan{/*crash_after_writes=*/100, /*seed=*/1});
  ASSERT_TRUE(device->WriteBlock(3, data.span()).ok());
  EXPECT_EQ(device->stats().writes, 0u);  // cached, not on the platter

  Buffer got(kBlockSize);
  ASSERT_TRUE(device->ReadBlock(3, got.mutable_span()).ok());
  EXPECT_TRUE(got == data);  // reads see the cache

  ASSERT_TRUE(device->Flush().ok());
  EXPECT_EQ(device->stats().writes, 1u);  // flush made it durable
}

TEST(CrashPlan, CrashFailsEverythingUntilRecovered) {
  auto device = MakeDevice();
  Buffer data(kBlockSize);
  device->ArmCrash(CrashPlan{/*crash_after_writes=*/2, /*seed=*/1});
  ASSERT_TRUE(device->WriteBlock(3, data.span()).ok());
  EXPECT_EQ(device->WriteBlock(4, data.span()).code(), ErrorCode::kIoError);
  EXPECT_TRUE(device->crashed());
  Buffer got(kBlockSize);
  EXPECT_EQ(device->ReadBlock(3, got.mutable_span()).code(),
            ErrorCode::kIoError);
  EXPECT_EQ(device->Flush().code(), ErrorCode::kIoError);
  EXPECT_GE(device->stats().write_errors, 1u);

  device->RecoverAfterCrash();
  EXPECT_FALSE(device->crashed());
  ASSERT_TRUE(device->ReadBlock(3, got.mutable_span()).ok());
  ASSERT_TRUE(device->WriteBlock(3, data.span()).ok());
}

TEST(CrashPlan, OutcomeIsDeterministicPerSeed) {
  // Two identical runs with the same plan leave identical durable images.
  auto image_after_crash = [](uint64_t seed) {
    auto device = MakeDevice();
    Rng rng(42);  // workload rng fixed; plan seed varies
    device->ArmCrash(CrashPlan{/*crash_after_writes=*/6, seed});
    Buffer data(kBlockSize);
    for (BlockNum b = 1; b <= 6; ++b) {
      rng.Fill(data.mutable_span());
      (void)device->WriteBlock(b, data.span());
    }
    device->RecoverAfterCrash();
    Buffer image;
    Buffer block(kBlockSize);
    for (BlockNum b = 1; b <= 6; ++b) {
      EXPECT_TRUE(device->ReadBlock(b, block.mutable_span()).ok());
      image.append(block.span());
    }
    return image;
  };
  Buffer first = image_after_crash(123);
  Buffer second = image_after_crash(123);
  EXPECT_TRUE(first == second);
  // And a different seed chooses a different survivor set (overwhelmingly).
  Buffer third = image_after_crash(456);
  EXPECT_FALSE(first == third);
}

// --- Journal-through-Ufs integration ---

TEST(CrashRecovery, FormatReservesJournalAndMountReplays) {
  auto device = MakeDevice();
  auto fs = ufs::Ufs::Format(device.get());
  ASSERT_TRUE(fs.ok());
  EXPECT_TRUE((*fs)->journaled());
  const ufs::Superblock& sb = (*fs)->superblock();
  EXPECT_GT(sb.jnl_blocks, 0u);
  EXPECT_EQ(sb.jnl_start(), kDevBlocks - sb.jnl_blocks);
  EXPECT_EQ((*fs)->last_committed_tx(), 1u);  // the format sync

  ASSERT_TRUE((*fs)->Create(kRootInode, "a", ufs::FileType::kRegular).ok());
  ASSERT_TRUE((*fs)->Sync().ok());
  EXPECT_EQ((*fs)->last_committed_tx(), 2u);
  EXPECT_GE(metrics::StatValue(**fs, "journal_commits"), 2u);
  (*fs)->Abandon();
  fs->reset();

  auto again = ufs::Ufs::Mount(device.get());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*again)->journaled());
  EXPECT_EQ((*again)->last_committed_tx(), 2u);
  EXPECT_TRUE((*again)->Lookup(kRootInode, "a").ok());
  (*again)->Abandon();
}

TEST(CrashRecovery, JournalOffFormatStillWorks) {
  auto device = MakeDevice();
  auto fs = ufs::Ufs::Format(device.get(), &DefaultClock(),
                             ufs::FormatOptions{/*journal=*/false});
  ASSERT_TRUE(fs.ok());
  EXPECT_FALSE((*fs)->journaled());
  EXPECT_EQ((*fs)->superblock().jnl_blocks, 0u);
  ASSERT_TRUE((*fs)->Create(kRootInode, "a", ufs::FileType::kRegular).ok());
  ASSERT_TRUE((*fs)->Sync().ok());
  ufs::Checker checker(device.get());
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

// --- The crash/recovery property suite: >= 200 seeded crash points ---

// On the first failing seed, print the flight recorder (journal commits,
// replay decisions, injected crash point) and save it for CI upload. A lazy
// shape's shard must also land crash points in every window.
void RunCrashShard(const Shape& shape, uint64_t first_seed) {
  bool dumped = false;
  uint64_t hits[static_cast<int>(Window::kCount)] = {};
  for (uint64_t seed = first_seed; seed < first_seed + 55; ++seed) {
    Window window = Window::kInPlace;
    RunCrashSeed(shape, seed, &window);
    ++hits[static_cast<int>(window)];
    if (!dumped && ::testing::Test::HasFailure()) {
      dumped = true;
      std::string header = "crash seed=" + std::to_string(seed);
      std::fprintf(stderr,
                   "=== flight recorder (%s, last 64 events) ===\n%s",
                   header.c_str(), flight::Dump(64).c_str());
      flight::DumpToArtifact("crash", header);
    }
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  if (shape.lazy) {
    for (int w = 0; w < static_cast<int>(Window::kCount); ++w) {
      EXPECT_GT(hits[w], 0u) << "no crash point in window " << w;
    }
  }
}

TEST(CrashRecovery, SeededCrashPointsShard0) {
  RunCrashShard(kDirectShape, 1000);
}
TEST(CrashRecovery, SeededCrashPointsShard1) {
  RunCrashShard(kDirectShape, 2000);
}
TEST(CrashRecovery, SeededCrashPointsShard2) {
  RunCrashShard(kDirectShape, 3000);
}
TEST(CrashRecovery, SeededCrashPointsShard3) {
  RunCrashShard(kDirectShape, 4000);
}

// The same property over files past the direct blocks: 220 more crash
// points, now landing on journaled single- and double-indirect pointer
// blocks and on the metadata the truncates free.
TEST(CrashRecovery, PointerBlockCrashPointsShard0) {
  RunCrashShard(kPointerShape, 6000);
}
TEST(CrashRecovery, PointerBlockCrashPointsShard1) {
  RunCrashShard(kPointerShape, 7000);
}
TEST(CrashRecovery, PointerBlockCrashPointsShard2) {
  RunCrashShard(kPointerShape, 8000);
}
TEST(CrashRecovery, PointerBlockCrashPointsShard3) {
  RunCrashShard(kPointerShape, 9000);
}

// The lazy log: Commit at each sync step and Sync one time in eight, in a
// 24-block log, so replay meets several live transactions. Crash points aim
// at every window of commit and checkpoint in turn (each shard checks it
// reached them all).
TEST(CrashRecovery, LazyLogCrashPointsShard0) {
  RunCrashShard(kLazyLogShape, 11000);
}
TEST(CrashRecovery, LazyLogCrashPointsShard1) {
  RunCrashShard(kLazyLogShape, 12000);
}
TEST(CrashRecovery, LazyLogCrashPointsShard2) {
  RunCrashShard(kLazyLogShape, 13000);
}
TEST(CrashRecovery, LazyLogCrashPointsShard3) {
  RunCrashShard(kLazyLogShape, 14000);
}

// The revoke rule. A truncate frees a data block whose overwrite is still
// live in the log; the block comes back as another file's fresh (ordered)
// data. Unless that data is logged too, replaying the older record would
// clobber it. Crashes at every write of the last two commits.
TEST(CrashRecovery, LazyLogRevokedBlockReallocatedAsOrderedData) {
  Rng rng(99);
  Buffer old_data = rng.RandomBuffer(kBlockSize);
  Buffer new_data = rng.RandomBuffer(kBlockSize);
  // Builds the scenario up to the final two commits; returns the mount.
  auto prepare = [&](FaultyBlockDevice* device) {
    auto formatted = ufs::Ufs::Format(device);
    EXPECT_TRUE(formatted.ok());
    std::unique_ptr<ufs::Ufs> fs = std::move(*formatted);
    // Fill the device up to one free data block: a takes it, so the block
    // a frees is the only one b can get.
    ufs::InodeNum filler = *fs->Create(kRootInode, "filler",
                                       ufs::FileType::kRegular);
    Buffer zero(kBlockSize);
    for (uint64_t b = 0; fs->FreeBlocks() > 1; ++b) {
      EXPECT_TRUE(fs->WriteFileBlock(filler, b, zero.span()).ok());
    }
    EXPECT_EQ(fs->FreeBlocks(), 1u);
    EXPECT_TRUE(fs->Sync().ok());
    ufs::InodeNum a = *fs->Create(kRootInode, "a", ufs::FileType::kRegular);
    EXPECT_TRUE(fs->Write(a, 0, zero.span()).ok());
    EXPECT_TRUE(fs->Commit().ok());  // a's block: fresh, written in place
    EXPECT_EQ(fs->FreeBlocks(), 0u);
    EXPECT_TRUE(fs->Write(a, 0, old_data.span()).ok());
    EXPECT_TRUE(fs->Commit().ok());  // overwrite: logged, live
    EXPECT_TRUE(fs->Truncate(a, 0).ok());
    EXPECT_TRUE(fs->Commit().ok());  // freed; its record is still live
    EXPECT_EQ(fs->FreeBlocks(), 1u);
    EXPECT_EQ(metrics::StatValue(*fs, "journal_checkpoints"), 2u);
    return fs;
  };
  // The last two commits: b takes the freed block, then an unrelated one.
  auto finish = [&](ufs::Ufs* fs) {
    auto b = fs->Create(kRootInode, "b", ufs::FileType::kRegular);
    return b.ok() && fs->Write(*b, 0, new_data.span()).ok() &&
           fs->Commit().ok() &&
           fs->Create(kRootInode, "c", ufs::FileType::kRegular).ok() &&
           fs->Commit().ok();
  };

  auto dry = MakeDevice();
  std::unique_ptr<ufs::Ufs> fs = prepare(dry.get());
  uint64_t tx_before = fs->last_committed_tx();
  uint64_t writes_before = dry->stats().writes;
  ASSERT_TRUE(finish(fs.get()));
  uint64_t writes = dry->stats().writes - writes_before;
  EXPECT_EQ(metrics::StatValue(*fs, "journal_checkpoints"), 2u);
  fs->Abandon();
  ASSERT_GT(writes, 2u);

  for (uint64_t crash_at = 1; crash_at <= writes + 1; ++crash_at) {
    SCOPED_TRACE("crash at write " + std::to_string(crash_at));
    auto device = MakeDevice();
    std::unique_ptr<ufs::Ufs> armed = prepare(device.get());
    device->ArmCrash(CrashPlan{crash_at, /*seed=*/crash_at});
    bool completed = finish(armed.get());
    armed->Abandon();
    armed.reset();
    // Past the last write, power is lost with every commit durable and
    // none checkpointed: replay alone rebuilds b.
    EXPECT_EQ(completed, crash_at > writes);
    device->RecoverAfterCrash();
    auto recovered = ufs::Ufs::Mount(device.get());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ufs::Checker checker(device.get());
    auto report = checker.Check();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean()) << report->Summary();
    auto b = (*recovered)->Lookup(kRootInode, "b");
    if ((*recovered)->last_committed_tx() > tx_before) {
      ASSERT_TRUE(b.ok());
      Buffer got(kBlockSize);
      auto n = (*recovered)->Read(*b, 0, got.mutable_span());
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(*n, kBlockSize);
      EXPECT_TRUE(got == new_data) << "replay clobbered reallocated data";
    } else {
      EXPECT_EQ(b.code(), ErrorCode::kNotFound);
    }
    (*recovered)->Abandon();
  }
}

// Control: with the journal disabled the same crashes corrupt the file
// system and the harness notices — i.e. the property suite above is not
// vacuously green.
TEST(CrashRecovery, WithoutJournalHarnessDetectsCorruption) {
  int detected = 0;
  constexpr int kSeeds = 40;
  for (uint64_t seed = 5000; seed < 5000 + kSeeds; ++seed) {
    detected += CrashWithoutJournalIsDetected(kDirectShape, seed) ? 1 : 0;
  }
  EXPECT_GE(detected, 1) << "no crash corrupted a journal-less fs in "
                         << kSeeds << " seeds; the harness has no teeth";
}

TEST(CrashRecovery, PointerBlocksWithoutJournalHarnessDetectsCorruption) {
  int detected = 0;
  constexpr int kSeeds = 40;
  for (uint64_t seed = 10000; seed < 10000 + kSeeds; ++seed) {
    detected += CrashWithoutJournalIsDetected(kPointerShape, seed) ? 1 : 0;
  }
  EXPECT_GE(detected, 1) << "no crash corrupted a journal-less fs in "
                         << kSeeds << " seeds; the harness has no teeth";
}

TEST(CrashRecovery, LazyLogWithoutJournalHarnessDetectsCorruption) {
  int detected = 0;
  constexpr int kSeeds = 40;
  for (uint64_t seed = 15000; seed < 15000 + kSeeds; ++seed) {
    detected += CrashWithoutJournalIsDetected(kLazyLogShape, seed) ? 1 : 0;
  }
  EXPECT_GE(detected, 1) << "no crash corrupted a journal-less fs in "
                         << kSeeds << " seeds; the harness has no teeth";
}

}  // namespace
}  // namespace springfs
