#include "src/ufs/journal.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <vector>

#include "src/support/logging.h"

namespace springfs::ufs {
namespace {

constexpr uint32_t kJournalVersion = 2;
constexpr uint32_t kTxMagic = 0x58544A53;  // "SJTX"

// Log-head field offsets (the device's last block). The CRC covers
// [kHeadMagic, kHeadEnd).
constexpr size_t kHeadCrc = 0;
constexpr size_t kHeadMagic = 4;
constexpr size_t kHeadVersion = 8;
constexpr size_t kHeadJnlStart = 16;
constexpr size_t kHeadNonce = 24;
constexpr size_t kHeadNextTx = 32;
constexpr size_t kHeadEnd = 40;

// Transaction-header field offsets. The descriptor table runs from
// kTxEntries through the continuation blocks; the CRC covers everything
// from kTxMagic to the last entry.
constexpr size_t kTxCrc = 0;
constexpr size_t kTxMagicOff = 4;
constexpr size_t kTxVersion = 8;
constexpr size_t kTxNonce = 16;
constexpr size_t kTxId = 24;
constexpr size_t kTxNumRecords = 32;
constexpr size_t kTxEntries = 40;

constexpr uint64_t kDescEntrySize = 16;  // home block u64 + payload tag u64

// Descriptor continuation blocks a transaction of `n` records needs beyond
// its header block.
uint64_t DescBlocksFor(uint64_t n) {
  uint64_t table_bytes = kTxEntries + n * kDescEntrySize;
  return (table_bytes + kBlockSize - 1) / kBlockSize - 1;
}

// Log blocks a transaction of `n` records occupies.
uint64_t TxBlocksFor(uint64_t n) { return 1 + DescBlocksFor(n) + n; }

// Integrity tag for a journaled payload. Deliberately NOT Crc32: the
// superblock embeds its own Crc32 as a trailer, which by the CRC residue
// property gives every valid superblock block the same CRC32 — any two
// valid superblocks differ by a CRC codeword, so a linear check (seeded or
// not) cannot tell them apart. Log slots are reused after each checkpoint,
// so a slot may still hold an older transaction's record; FNV-1a is
// non-linear, and folding in the tx id and home block rejects such stale
// slot contents.
uint64_t PayloadTag(uint64_t tx_id, uint64_t home, ByteSpan payload) {
  uint64_t tag = Fnv1a64(payload);
  tag ^= tx_id * 0x9E3779B97F4A7C15ull;
  tag ^= home * 0xC2B2AE3D27D4EB4Full;
  return tag;
}

// A nonce no earlier log on this device is likely to share: the time, a
// process-wide counter and the device's address, mixed (splitmix64).
uint64_t FreshNonce(const BlockDevice* device) {
  static std::atomic<uint64_t> counter{0};
  uint64_t x = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  x ^= (counter.fetch_add(1) + 1) * 0x9E3779B97F4A7C15ull;
  x ^= reinterpret_cast<uintptr_t>(device);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct LogHead {
  uint64_t jnl_start = 0;
  uint64_t nonce = 0;
  uint64_t next_tx = 0;
};

// Reads and verifies the log head; nullopt when the device holds none.
Result<std::optional<LogHead>> ReadHead(BlockDevice* device) {
  Buffer block(kBlockSize);
  RETURN_IF_ERROR(
      device->ReadBlock(device->num_blocks() - 1, block.mutable_span()));
  const uint8_t* p = block.data();
  if (GetU32(p + kHeadMagic) != kJournalMagic ||
      GetU32(p + kHeadVersion) != kJournalVersion ||
      GetU32(p + kHeadCrc) !=
          Crc32(block.subspan(kHeadMagic, kHeadEnd - kHeadMagic))) {
    return std::optional<LogHead>();
  }
  LogHead head{GetU64(p + kHeadJnlStart), GetU64(p + kHeadNonce),
               GetU64(p + kHeadNextTx)};
  return std::optional<LogHead>(head);
}

// One transaction read back from the log.
struct LoggedTx {
  uint64_t blocks = 0;  // log blocks it occupies
  std::vector<std::pair<BlockNum, Buffer>> records;
};

// Reads the transaction at log offset `pos` and verifies it is `tx_id`
// under `nonce`, fits in the `room` blocks left, and that every payload
// matches its tag. nullopt when it does not verify.
Result<std::optional<LoggedTx>> ReadTx(BlockDevice* device, uint64_t jnl_start,
                                       uint64_t pos, uint64_t room,
                                       uint64_t nonce, uint64_t tx_id) {
  std::optional<LoggedTx> none;
  Buffer header(kBlockSize);
  RETURN_IF_ERROR(device->ReadBlock(jnl_start + pos, header.mutable_span()));
  const uint8_t* p = header.data();
  uint64_t n = GetU64(p + kTxNumRecords);
  if (GetU32(p + kTxMagicOff) != kTxMagic ||
      GetU32(p + kTxVersion) != kJournalVersion ||
      GetU64(p + kTxNonce) != nonce || GetU64(p + kTxId) != tx_id || n == 0 ||
      n >= room || TxBlocksFor(n) > room) {
    return none;
  }
  uint64_t desc_blocks = DescBlocksFor(n);
  Buffer table(header.span());
  table.resize((1 + desc_blocks) * kBlockSize);
  for (uint64_t b = 1; b <= desc_blocks; ++b) {
    RETURN_IF_ERROR(device->ReadBlock(
        jnl_start + pos + b,
        table.mutable_span().subspan(b * kBlockSize, kBlockSize)));
  }
  size_t table_end = kTxEntries + n * kDescEntrySize;
  if (GetU32(table.data() + kTxCrc) !=
      Crc32(table.subspan(kTxMagicOff, table_end - kTxMagicOff))) {
    return none;
  }
  // Validate every record before applying any: a single torn payload
  // invalidates the whole transaction.
  LoggedTx tx;
  tx.blocks = TxBlocksFor(n);
  Buffer payload(kBlockSize);
  for (uint64_t i = 0; i < n; ++i) {
    const uint8_t* e = table.data() + kTxEntries + i * kDescEntrySize;
    uint64_t home = GetU64(e + 0);
    if (home >= jnl_start) {
      return none;
    }
    RETURN_IF_ERROR(device->ReadBlock(jnl_start + pos + 1 + desc_blocks + i,
                                      payload.mutable_span()));
    if (GetU64(e + 8) != PayloadTag(tx_id, home, payload.span())) {
      return none;
    }
    tx.records.emplace_back(home, payload);
  }
  return std::optional<LoggedTx>(std::move(tx));
}

}  // namespace

Journal::Journal(BlockDevice* device, uint64_t jnl_start)
    : device_(device), jnl_start_(jnl_start) {
  SPRINGFS_CHECK(jnl_start_ + 1 < device_->num_blocks());
}

uint64_t Journal::capacity() const {
  return device_->num_blocks() - 1 - jnl_start_;
}

bool Journal::Fits(uint64_t num_records) const {
  return TxBlocksFor(num_records) <= capacity();
}

bool Journal::HasRoom(uint64_t num_records) const {
  return used_ + TxBlocksFor(num_records) <= capacity();
}

Status Journal::WriteHead() {
  Buffer block(kBlockSize);
  uint8_t* p = block.data();
  PutU32(p + kHeadMagic, kJournalMagic);
  PutU32(p + kHeadVersion, kJournalVersion);
  PutU64(p + kHeadJnlStart, jnl_start_);
  PutU64(p + kHeadNonce, nonce_);
  PutU64(p + kHeadNextTx, next_tx_);
  PutU32(p + kHeadCrc, Crc32(block.subspan(kHeadMagic, kHeadEnd - kHeadMagic)));
  RETURN_IF_ERROR(device_->WriteBlock(device_->num_blocks() - 1, block.span()));
  return device_->Flush();
}

Status Journal::Start(uint64_t next_tx) {
  started_ = false;
  nonce_ = FreshNonce(device_);
  next_tx_ = next_tx;
  used_ = 0;
  live_.clear();
  RETURN_IF_ERROR(WriteHead());
  started_ = true;
  return Status::Ok();
}

Status Journal::Open(uint64_t next_tx) {
  ASSIGN_OR_RETURN(std::optional<LogHead> head, ReadHead(device_));
  if (!head || head->jnl_start != jnl_start_ || head->next_tx != next_tx) {
    return Start(next_tx);
  }
  nonce_ = head->nonce;
  next_tx_ = next_tx;
  used_ = 0;
  live_.clear();
  started_ = true;
  return Status::Ok();
}

Status Journal::Commit(uint64_t tx_id, std::map<BlockNum, Buffer> blocks) {
  if (tx_id == 0) {
    return ErrInvalidArgument("journal tx id 0 is reserved");
  }
  uint64_t n = blocks.size();
  if (n == 0) {
    return ErrInvalidArgument("empty journal transaction");
  }
  if (!Fits(n)) {
    return ErrNoSpace("transaction of " + std::to_string(n) +
                      " blocks exceeds journal capacity");
  }
  if (!started_) {
    RETURN_IF_ERROR(Start(tx_id));
  }
  if (tx_id != next_tx_) {
    return ErrInvalidArgument("journal expects tx " + std::to_string(next_tx_) +
                              ", got " + std::to_string(tx_id));
  }
  if (!HasRoom(n)) {
    return ErrNoSpace("log full: checkpoint before committing tx " +
                      std::to_string(tx_id));
  }
  uint64_t desc_blocks = DescBlocksFor(n);
  BlockNum header_slot = jnl_start_ + used_;
  BlockNum payload_lo = header_slot + 1 + desc_blocks;

  // Header and descriptor table first, then payloads, in log order. One
  // flush covers them all: under the crash model any unflushed subset may
  // be dropped, and the CRC and payload tags reject every partial subset.
  Buffer table((1 + desc_blocks) * kBlockSize);
  uint8_t* p = table.data();
  PutU32(p + kTxMagicOff, kTxMagic);
  PutU32(p + kTxVersion, kJournalVersion);
  PutU64(p + kTxNonce, nonce_);
  PutU64(p + kTxId, tx_id);
  PutU64(p + kTxNumRecords, n);
  uint64_t i = 0;
  for (const auto& [home, payload] : blocks) {
    SPRINGFS_CHECK(payload.size() == kBlockSize);
    SPRINGFS_CHECK(home < jnl_start_);  // homes never point into the journal
    uint8_t* e = p + kTxEntries + i * kDescEntrySize;
    PutU64(e + 0, home);
    PutU64(e + 8, PayloadTag(tx_id, home, payload.span()));
    ++i;
  }
  size_t table_end = kTxEntries + n * kDescEntrySize;
  PutU32(p + kTxCrc,
         Crc32(table.subspan(kTxMagicOff, table_end - kTxMagicOff)));
  for (uint64_t b = 0; b <= desc_blocks; ++b) {
    RETURN_IF_ERROR(device_->WriteBlock(
        header_slot + b, table.subspan(b * kBlockSize, kBlockSize)));
  }
  i = 0;
  for (const auto& [home, payload] : blocks) {
    RETURN_IF_ERROR(device_->WriteBlock(payload_lo + i, payload.span()));
    ++i;
  }
  RETURN_IF_ERROR(device_->Flush());

  // Durable: the log now holds the latest version of every record.
  i = 0;
  for (auto& [home, payload] : blocks) {
    if (!live_.insert_or_assign(home,
                                LiveRecord{payload_lo + i, std::move(payload)})
             .second) {
      ++writes_absorbed_;
    }
    ++i;
  }
  used_ += TxBlocksFor(n);
  ++next_tx_;
  return Status::Ok();
}

Status Journal::Checkpoint() {
  if (live_.empty()) {
    return Status::Ok();
  }
  // std::map order: homes go out sorted by block number.
  for (const auto& [home, record] : live_) {
    RETURN_IF_ERROR(device_->WriteBlock(home, record.image.span()));
  }
  RETURN_IF_ERROR(device_->Flush());
  // Homes are durable; only now may the head retire the log.
  RETURN_IF_ERROR(WriteHead());
  live_.clear();
  used_ = 0;
  ++checkpoints_;
  return Status::Ok();
}

BlockNum Journal::LiveSlot(BlockNum home) const {
  auto it = live_.find(home);
  return it == live_.end() ? home : it->second.slot;
}

Result<ReplayReport> Journal::Replay(BlockDevice* device) {
  ReplayReport report;
  uint64_t nb = device->num_blocks();
  if (nb < 4) {
    return report;
  }
  ASSIGN_OR_RETURN(std::optional<LogHead> head, ReadHead(device));
  if (!head || head->next_tx == 0 || head->jnl_start == 0 ||
      head->jnl_start >= nb - 2) {
    return report;
  }
  uint64_t capacity = nb - 1 - head->jnl_start;
  std::map<BlockNum, Buffer> latest;
  uint64_t pos = 0;
  for (uint64_t tx_id = head->next_tx; pos < capacity; ++tx_id) {
    ASSIGN_OR_RETURN(std::optional<LoggedTx> tx,
                     ReadTx(device, head->jnl_start, pos, capacity - pos,
                            head->nonce, tx_id));
    if (!tx) {
      break;
    }
    for (auto& [home, data] : tx->records) {
      latest.insert_or_assign(home, std::move(data));
    }
    pos += tx->blocks;
    report.tx_id = tx_id;
  }
  if (latest.empty()) {
    return report;
  }
  for (const auto& [home, data] : latest) {
    RETURN_IF_ERROR(device->WriteBlock(home, data.span()));
  }
  RETURN_IF_ERROR(device->Flush());
  report.blocks_replayed = latest.size();
  return report;
}

}  // namespace springfs::ufs
