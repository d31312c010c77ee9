// Measurement at the stacking seams, built only from interfaces the library
// exposes for composition (paper section 5: interposition).
//
//  * Tracer          — in-memory span store. A span is (name, seam, start,
//                      end, parent, op id); self time is computed online as
//                      a span's duration minus its children's durations
//                      (spans nest: the whole workload runs on one thread).
//  * SeamClock       — forwards to the shared virtual clock and totals the
//                      simulated time slept through it (wire, door).
//  * TimingTransport — wraps SpinTransport; counts cross-domain calls per op
//                      type and the CPU the crossing itself costs.
//  * CountingBlockDevice — the CPU spent in the device below it.
//  * Seam            — pass-through interposers for the File, Context,
//                      StackableFs, PagerObject, CacheObject and
//                      CacheManager objects that cross one seam. Wrappers
//                      are canonical per wrapped object, so layers that key
//                      state on object identity behave exactly as without
//                      the seam.

#ifndef SPRINGBENCH_TRACING_H_
#define SPRINGBENCH_TRACING_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/fs/file.h"
#include "src/fs/fs_objects.h"
#include "src/obj/domain.h"
#include "src/support/clock.h"

namespace springbench {

using springfs::sp;

inline uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The operation types the generator issues. kNone marks set-up work.
enum class OpType : uint8_t {
  kOpen,
  kClose,
  kPread,
  kPwrite,
  kFstat,
  kFsync,
  kScan,
  kNone,
};
inline constexpr size_t kNumOpTypes = 7;
const char* OpName(OpType type);

// Where a span was recorded. kOp spans are the generator's own, one per op.
enum class SeamId : uint8_t {
  kOp,
  kPosix,      // posix shim / client VMM -> stack root
  kCohDisk,    // coherency layer -> disk layer
  kDfsComp,    // DFS server -> COMPFS
  kCompSfs,    // COMPFS -> SFS
};
inline constexpr size_t kNumSeams = 5;
const char* SeamName(SeamId seam);

// Calls that go down a seam are served by the layer below it; calls that go
// up (cache objects, channel set-up) by the layer above.
enum class Direction : uint8_t { kDown, kUp };

class Tracer {
 public:
  static constexpr uint32_t kNoParent = ~uint32_t{0};

  struct Span {
    const char* name;
    SeamId seam;
    Direction dir;
    uint32_t parent;
    uint64_t op_id;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  // Totals per (seam, direction): calls, inclusive and self wall time.
  struct SeamTotals {
    uint64_t calls = 0;
    uint64_t inclusive_ns = 0;
    uint64_t self_ns = 0;
  };

  explicit Tracer(size_t max_kept_spans) : max_kept_(max_kept_spans) {}

  // Starts/ends the generator's span for one op; seam spans opened in
  // between are its descendants.
  void BeginOp(OpType type);
  void EndOp();
  OpType current_op() const { return current_type_; }

  // Opens a span; returns a token for End.
  uint32_t Begin(const char* name, SeamId seam, Direction dir);
  void End(uint32_t token);

  // Resolve calls, counted separately for naming metrics.
  void CountResolve(SeamId seam) {
    ++resolves_[static_cast<size_t>(seam)];
  }

  // Drops kept spans and aggregates; called (with no span open) at the
  // start of the timed window.
  void ResetWindow();
  const SeamTotals& totals(SeamId seam, Direction dir) const {
    return totals_[static_cast<size_t>(seam)][static_cast<size_t>(dir)];
  }
  // Self time of the generator's op spans, per op type.
  const std::array<SeamTotals, kNumOpTypes>& op_totals() const {
    return op_totals_;
  }
  uint64_t resolves(SeamId seam) const {
    return resolves_[static_cast<size_t>(seam)];
  }
  // Inclusive wall time of down-going Resolve spans at a seam.
  uint64_t resolve_ns(SeamId seam) const {
    return resolve_ns_[static_cast<size_t>(seam)];
  }

  size_t kept_spans() const { return kept_.size(); }
  uint64_t dropped_spans() const { return dropped_; }

  // Writes the kept spans as tab-separated lines
  // (id, parent, op_id, seam, dir, name, start_ns, end_ns).
  bool WriteSpans(const std::string& path) const;

 private:
  struct Open {
    uint32_t kept_index;  // kNoParent when not kept
    uint64_t start_ns;
    uint64_t child_ns;
    const char* name;
    SeamId seam;
    Direction dir;
    bool is_op;
  };

  size_t max_kept_;
  std::vector<Span> kept_;
  uint64_t dropped_ = 0;
  std::vector<Open> stack_;
  uint64_t next_op_id_ = 0;
  uint64_t op_id_ = 0;
  OpType current_type_ = OpType::kNone;

  std::array<std::array<SeamTotals, 2>, kNumSeams> totals_{};
  std::array<SeamTotals, kNumOpTypes> op_totals_{};
  std::array<uint64_t, kNumSeams> resolves_{};
  std::array<uint64_t, kNumSeams> resolve_ns_{};
};

// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, SeamId seam, Direction dir)
      : tracer_(tracer), token_(tracer->Begin(name, seam, dir)) {}
  ~SpanScope() { tracer_->End(token_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  uint32_t token_;
};

// Forwards to the shared virtual clock and totals the time slept through
// this adapter.
class SeamClock : public springfs::Clock {
 public:
  explicit SeamClock(springfs::Clock* base) : base_(base) {}

  springfs::TimeNs Now() const override { return base_->Now(); }
  void SleepNs(uint64_t ns) override {
    slept_ns_ += ns;
    base_->SleepNs(ns);
  }
  uint64_t slept_ns() const { return slept_ns_; }

 private:
  springfs::Clock* base_;
  uint64_t slept_ns_ = 0;
};

// SpinTransport plus accounting: crossings per op type, and the wall time
// spent in the crossing itself (outside the carried operation). The total
// crossing count is the domains' own cross_calls counter.
class TimingTransport : public springfs::Transport {
 public:
  TimingTransport(uint64_t cross_call_ns, springfs::Clock* clock,
                  const Tracer* tracer)
      : inner_(cross_call_ns, clock), tracer_(tracer) {}

  void Execute(springfs::Domain* target,
               const std::function<void()>& op) override;

  void Reset() {
    own_ns_ = 0;
    by_op_.fill(0);
  }
  uint64_t own_ns() const { return own_ns_; }
  // Crossings made while an op of `type` was running.
  uint64_t calls_during(OpType type) const {
    return by_op_[static_cast<size_t>(type)];
  }

 private:
  springfs::SpinTransport inner_;
  const Tracer* tracer_;
  uint64_t own_ns_ = 0;
  std::array<uint64_t, kNumOpTypes + 1> by_op_{};
};

// Totals the wall time spent in the device below; the I/O counts are the
// device's own stats().
class CountingBlockDevice : public springfs::BlockDevice {
 public:
  explicit CountingBlockDevice(springfs::BlockDevice* base) : base_(base) {}

  uint32_t block_size() const override { return base_->block_size(); }
  springfs::BlockNum num_blocks() const override {
    return base_->num_blocks();
  }
  springfs::Status ReadBlock(springfs::BlockNum block,
                             springfs::MutableByteSpan out) override;
  springfs::Status WriteBlock(springfs::BlockNum block,
                              springfs::ByteSpan data) override;
  springfs::Status Flush() override;
  springfs::BlockDeviceStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

  void Reset() { busy_ns_ = 0; }
  uint64_t busy_ns() const { return busy_ns_; }

 private:
  springfs::BlockDevice* base_;
  uint64_t busy_ns_ = 0;
};

// The interposers for one seam. Wrap* return the canonical wrapper of an
// object (creating it on first sight); Unwrap returns the wrapped object
// for an object this seam handed out, else the object itself.
class Seam {
 public:
  Seam(Tracer* tracer, SeamId id) : tracer_(tracer), id_(id) {}

  sp<springfs::StackableFs> WrapFs(sp<springfs::StackableFs> fs);
  sp<springfs::Context> WrapContext(sp<springfs::Context> ctx);
  sp<springfs::File> WrapFile(sp<springfs::File> file);
  sp<springfs::Object> WrapObject(sp<springfs::Object> object);
  sp<springfs::CacheManager> WrapManager(sp<springfs::CacheManager> manager);
  sp<springfs::PagerObject> WrapPager(sp<springfs::PagerObject> pager);
  sp<springfs::CacheObject> WrapCache(sp<springfs::CacheObject> cache);
  sp<springfs::Object> Unwrap(sp<springfs::Object> object) const;
  // Drops every wrapper and the references they hold; a stack calls it
  // before releasing its layers.
  void Clear();

  Tracer* tracer() const { return tracer_; }
  SeamId id() const { return id_; }

 private:
  Tracer* tracer_;
  SeamId id_;
  // Canonical wrappers by (interface kind, wrapped object), and the
  // reverse map for Unwrap. Both hold references until Clear.
  std::map<std::pair<int, const void*>, sp<springfs::Object>> wrappers_;
  std::map<const void*, sp<springfs::Object>> wrapped_by_wrapper_;

  template <typename W, int kKind, typename T>
  sp<W> Canonical(const sp<T>& inner);
};

}  // namespace springbench

#endif  // SPRINGBENCH_TRACING_H_
