// Write-ahead (redo) log for the UFS substrate.
//
// The log turns each Ufs::Commit into an atomic, durable transaction: every
// block that is already referenced by durable metadata (superblock, bitmaps,
// inode table, directory and indirect blocks, and in-place data overwrites)
// is written to the log together with a checksummed transaction header and
// flushed. Home locations are written lazily, at checkpoint: once per
// checkpoint, with the latest committed version of each block. Recovery
// replays every committed transaction still in the log on mount, so a crash
// at any point leaves the file system exactly at its last durable commit.
//
// On-disk layout, inside [jnl_start, num_blocks):
//
//   num_blocks - 1             log head: region start, log nonce, and the id
//                              of the transaction at the start of the log
//   [jnl_start, num_blocks-1)  the log: transactions packed back to back from
//                              jnl_start, each one
//                                header (tx id, nonce, descriptor entries:
//                                  home block u64, payload tag u64)
//                                descriptor continuation blocks, if needed
//                                payloads, one full block each
//
// The log head lives at a fixed location (the device's last block) so that
// recovery needs nothing else to find the log — in particular, not the
// superblock, whose home copy is itself journaled and may be stale or torn.
// Replay starts at jnl_start with the head's tx id and applies transactions
// in id order while each one verifies: header CRC, matching nonce and next
// id, and every payload tag. The first transaction that fails ends the scan,
// so a torn commit is never applied and nothing after it is either.
//
// A checkpoint writes every live block home (sorted by block number),
// flushes, then rewrites the head with the next transaction id and flushes
// again; only then is log space reused, from jnl_start. Records from before
// a checkpoint carry smaller ids than the head names, so replay never
// applies them. The nonce is chosen afresh whenever a log is started, so a
// previous file system's (or mount's) transactions never verify either.

#ifndef SPRINGFS_UFS_JOURNAL_H_
#define SPRINGFS_UFS_JOURNAL_H_

#include <map>

#include "src/blockdev/block_device.h"
#include "src/ufs/layout.h"

namespace springfs::ufs {

inline constexpr uint32_t kJournalMagic = 0x4C4E4A53;  // "SJNL"

// Result of a recovery scan.
struct ReplayReport {
  uint64_t tx_id = 0;        // last transaction replayed; 0 when none was
  uint64_t blocks_replayed = 0;  // distinct home blocks rewritten
};

class Journal {
 public:
  // The journal occupies [jnl_start, device->num_blocks()).
  Journal(BlockDevice* device, uint64_t jnl_start);

  uint64_t jnl_start() const { return jnl_start_; }

  // True when a transaction of `num_records` blocks fits in the whole log
  // (header, descriptor continuation blocks and payloads).
  bool Fits(uint64_t num_records) const;
  // True when it fits in the log space not yet used since the last
  // checkpoint.
  bool HasRoom(uint64_t num_records) const;

  // Adopts the log of a mounted file system whose live transactions were
  // already replayed. Starts a fresh log (new nonce, head naming `next_tx`)
  // unless the head on the device is valid and already names `next_tx`.
  Status Open(uint64_t next_tx);

  // Appends transaction `tx_id` (home block -> new content) to the log and
  // flushes the device. After this returns OK the transaction is durable;
  // its blocks stay live — served by LiveSlot — until the next Checkpoint.
  // Ids must be consecutive; a journal that was never opened starts a
  // fresh log at `tx_id`. Fails with kNoSpace when the transaction does not
  // fit in the free log space (HasRoom), without writing anything.
  Status Commit(uint64_t tx_id, std::map<BlockNum, Buffer> blocks);

  // Writes the latest version of every live block home, flushes, and
  // retires the log: the head now names the next transaction id and new
  // transactions start again at jnl_start. A no-op when nothing is live.
  Status Checkpoint();

  // The device block holding the latest committed version of `home`:
  // its log slot while it has a live record, else `home` itself.
  BlockNum LiveSlot(BlockNum home) const;
  bool IsLive(BlockNum home) const { return live_.count(home) != 0; }

  uint64_t live_blocks() const { return live_.size(); }
  uint64_t checkpoints() const { return checkpoints_; }
  // Home writes a checkpoint skipped because a later transaction
  // superseded the block while it was live.
  uint64_t writes_absorbed() const { return writes_absorbed_; }

  // Scans the log from the head and, if at least one transaction verifies,
  // rewrites every replayed record to its home location (the latest one
  // wins) and flushes. Leaves the log itself untouched, so it is
  // idempotent; returns tx_id 0 (not an error) when nothing verifies.
  static Result<ReplayReport> Replay(BlockDevice* device);

 private:
  // The latest committed image of a live block and its log slot.
  struct LiveRecord {
    BlockNum slot;
    Buffer image;
  };

  uint64_t capacity() const;
  // Starts an empty log under a fresh nonce whose first transaction is
  // `next_tx`.
  Status Start(uint64_t next_tx);
  // Writes the log head naming next_tx_ and flushes.
  Status WriteHead();

  BlockDevice* device_;
  uint64_t jnl_start_;
  bool started_ = false;
  uint64_t nonce_ = 0;
  uint64_t next_tx_ = 0;  // id of the next transaction to commit
  uint64_t used_ = 0;  // log blocks written since the last checkpoint
  std::map<BlockNum, LiveRecord> live_;
  uint64_t checkpoints_ = 0;
  uint64_t writes_absorbed_ = 0;
};

}  // namespace springfs::ufs

#endif  // SPRINGFS_UFS_JOURNAL_H_
