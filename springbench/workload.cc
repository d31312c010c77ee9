#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "src/obs/metrics.h"
#include "src/support/rng.h"
#include "stacks.h"

namespace springbench {

using namespace springfs;

// --- the workloads -----------------------------------------------------------

namespace {

// The op mix of every workload, per mille: open, close, pread, pwrite,
// fstat, fsync, scan. The generator closes a descriptor on close.
constexpr std::array<uint32_t, kNumOpTypes> kAppMix = {100, 50, 450, 200,
                                                       150, 20, 30};

WorkloadSpec HotStack() {
  WorkloadSpec spec;
  spec.name = "hot_stack";
  spec.files = 256;
  spec.pages_per_file = 16;  // 16 MiB
  spec.device_blocks = 16384;
  spec.zipf_s = 1.0;
  spec.warm_read_all = true;
  return spec;
}

WorkloadSpec ColdDisk() {
  WorkloadSpec spec;
  spec.name = "cold_disk";
  spec.coherency_caches = false;
  spec.files = 256;
  spec.pages_per_file = 64;  // 64 MiB
  spec.device_blocks = 32768;
  spec.vmm_max_pages = 256;  // 1 MiB, well under the working set
  spec.zipf_s = 0.0;
  return spec;
}

WorkloadSpec RemoteFig9() {
  WorkloadSpec spec;
  spec.name = "remote_fig9";
  spec.stack = StackKind::kRemote;
  spec.two_domains = false;  // one-domain SFS under COMPFS
  spec.files = 128;
  spec.pages_per_file = 16;  // 8 MiB of text
  // Room for the chunk store's never-reclaimed appends (see TextPage):
  // about 32 bytes per op, 32 MB in a 10 s run at 100k ops/s.
  spec.device_blocks = 32768;
  spec.zipf_s = 1.0;
  spec.c2_write_permille = 50;
  spec.warmup_ops = 500;
  return spec;
}

}  // namespace

std::optional<WorkloadSpec> SpecFor(const std::string& name) {
  if (name == "hot_stack") {
    return HotStack();
  }
  if (name == "cold_disk") {
    return ColdDisk();
  }
  if (name == "remote_fig9") {
    return RemoteFig9();
  }
  return std::nullopt;
}

std::vector<std::string> WorkloadNames() {
  return {"hot_stack", "cold_disk", "remote_fig9"};
}

// --- inputs ------------------------------------------------------------------

namespace {

// Zipf(s) over files via the inverse CDF; s == 0 is uniform. File k has
// popularity rank k for every seed, so seeds vary the op stream, not which
// files are hot (that keeps run-to-run spread down).
class FileChooser {
 public:
  FileChooser(uint32_t n, double s) : n_(n) {
    if (s > 0) {
      cdf_.resize(n);
      double total = 0;
      for (uint32_t k = 0; k < n; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = total;
      }
      for (double& c : cdf_) {
        c /= total;
      }
    }
  }

  uint32_t Next(Rng& rng) const {
    if (cdf_.empty()) {
      return static_cast<uint32_t>(rng.Below(n_));
    }
    double u = rng.NextDouble();
    auto rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min<uint32_t>(static_cast<uint32_t>(rank), n_ - 1);
  }

 private:
  uint32_t n_;
  std::vector<double> cdf_;
};

// Compressible text pages: a few lines of words from a small vocabulary,
// repeated to fill the page (log- or form-like text).
//
// The repetition keeps COMPFS's chunk store small: COMPFS appends every
// rewritten block and reclaims the orphaned chunks only by compaction in
// SyncFs, which deadlocks in Figure 6 mode (CompactLocked shrinks the lower
// file, whose coherency callback re-enters COMPFS and relocks the file
// state). So a remote run never compacts, and its appends must fit the
// device for the whole run.
Buffer TextPage(Rng& rng) {
  static const char* kWords[] = {
      "spring", "file",   "system", "layer",   "stack",  "cache",
      "pager",  "object", "domain", "coherent", "memory", "naming",
      "context", "bind",  "map",    "the",     "of",     "and",
      "to",     "a",      "in",     "is",      "data",   "block"};
  std::string lines;
  for (int line = 0; line < 4; ++line) {
    for (int word = 0; word < 10; ++word) {
      lines += kWords[rng.Below(std::size(kWords))];
      lines += word == 9 ? '\n' : ' ';
    }
  }
  Buffer page(kPageSize);
  for (size_t i = 0; i < kPageSize; ++i) {
    page.data()[i] = static_cast<uint8_t>(lines[i % lines.size()]);
  }
  return page;
}

// Depth-3 tree with fan-out 4: file i lives in leaf directory i % 64.
constexpr uint32_t kLeaves = 64;

// Descriptors the client holds open at most, and the length of a scan.
constexpr size_t kMaxOpenFds = 8;
constexpr uint32_t kScanPages = 64;

std::string LeafDir(uint32_t leaf) {
  return "a" + std::to_string(leaf / 16) + "/b" + std::to_string(leaf / 4 % 4) +
         "/c" + std::to_string(leaf % 4);
}

std::string FilePath(uint32_t file) {
  return LeafDir(file % kLeaves) + "/f" + std::to_string(file);
}

// 64-bit FNV-1a step.
void HashMix(uint64_t& hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ull;
  }
}

// The timed window is cut into slices of this length; each reported rate or
// latency quantile is the median of its per-slice values, so a burst of
// interference from other tenants of the host moves one slice, not the
// figure.
constexpr uint64_t kSliceNs = 1'000'000'000;

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

// The reported latency quantiles.
constexpr std::array<double, 2> kQuantiles = {0.5, 0.99};

// Latency samples of one op type. Only the current slice's samples are kept
// (so the benchmark's own memory does not grow with the run); each finished
// slice leaves its quantiles behind. A slice too small for some quantile
// (so holding fewer than 1000 samples) also keeps its samples, for the
// whole-window fallback of MedianUs.
struct Samples {
  std::vector<uint32_t> slice_ns;
  std::vector<uint32_t> small_slices_ns;
  uint64_t count = 0;
  std::array<std::vector<double>, kQuantiles.size()> per_slice_us;

  void Add(uint64_t ns) {
    slice_ns.push_back(static_cast<uint32_t>(
        std::min<uint64_t>(ns, std::numeric_limits<uint32_t>::max())));
    ++count;
  }

  // Records the slice's quantiles, each only when at least 10 samples lie
  // beyond it.
  void EndSlice() {
    bool small = false;
    for (size_t i = 0; i < kQuantiles.size(); ++i) {
      double beyond = (1 - kQuantiles[i]) * static_cast<double>(slice_ns.size());
      if (beyond >= 10) {
        per_slice_us[i].push_back(QuantileUs(slice_ns, kQuantiles[i]));
      } else {
        small = true;
      }
    }
    if (small) {
      small_slices_ns.insert(small_slices_ns.end(), slice_ns.begin(),
                             slice_ns.end());
    }
    slice_ns.clear();
  }

  // Median over slices of quantile i. When no finished slice had enough
  // samples for it, every slice was small, so the quantile over the small
  // slices' and the current slice's samples is the whole window's; nullopt
  // when the window has no samples.
  std::optional<double> MedianUs(size_t i) {
    if (!per_slice_us[i].empty()) {
      return Median(per_slice_us[i]);
    }
    std::vector<uint32_t> window = small_slices_ns;
    window.insert(window.end(), slice_ns.begin(), slice_ns.end());
    if (window.empty()) {
      return std::nullopt;
    }
    return QuantileUs(window, kQuantiles[i]);
  }

 private:
  static double QuantileUs(std::vector<uint32_t>& ns, double q) {
    size_t n = ns.size();
    size_t k = std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n)));
    std::nth_element(ns.begin(), ns.begin() + k, ns.end());
    return static_cast<double>(ns[k]) / 1000.0;
  }
};

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t SumMatching(const metrics::Registry::Snapshot& delta,
                     const std::string& prefix, const std::string& suffix) {
  uint64_t total = 0;
  for (const auto& [name, value] : delta.values) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value;
    }
  }
  return total;
}

// --- the generator -----------------------------------------------------------

class Generator {
 public:
  Generator(const WorkloadSpec& spec, uint64_t seed)
      : spec_(spec), rng_(seed), chooser_(spec.files, spec.zipf_s) {
    for (int i = 0; i < 64; ++i) {
      payloads_.push_back(TextPage(rng_));
    }
    model_.reserve(spec.files);
    for (uint32_t f = 0; f < spec.files; ++f) {
      Buffer content;
      for (uint32_t p = 0; p < spec.pages_per_file; ++p) {
        content.append(payloads_[rng_.Below(payloads_.size())]);
      }
      model_.push_back(std::move(content));
    }
  }

  // Creates the tree and writes every file's initial content.
  Status Seed(Stack& stack) {
    Credentials creds = Credentials::System();
    const sp<StackableFs>& root = stack.seed_root();
    for (uint32_t leaf = 0; leaf < kLeaves; ++leaf) {
      std::string dir = LeafDir(leaf);
      for (size_t cut : {dir.find('/'), dir.rfind('/'), dir.size()}) {
        ASSIGN_OR_RETURN(Name name, Name::Parse(dir.substr(0, cut)));
        Result<sp<Object>> existing = root->Resolve(name, creds);
        if (!existing.ok()) {
          RETURN_IF_ERROR(root->CreateContext(name, creds).status());
        }
      }
    }
    for (uint32_t f = 0; f < spec_.files; ++f) {
      ASSIGN_OR_RETURN(Name name, Name::Parse(FilePath(f)));
      ASSIGN_OR_RETURN(sp<File> file, root->CreateFile(name, creds));
      ASSIGN_OR_RETURN(size_t written, file->Write(0, model_[f].span()));
      if (written != model_[f].size()) {
        return ErrIoError("short seed write");
      }
      if (f % 32 == 31) {
        RETURN_IF_ERROR(root->SyncFs());
      }
    }
    RETURN_IF_ERROR(root->SyncFs());
    if (stack.writer() != nullptr) {
      Domain::Scope scope(stack.writer_domain().get());
      for (uint32_t f = 0; f < spec_.files; ++f) {
        ASSIGN_OR_RETURN(int fd,
                         stack.writer()->Open("/" + FilePath(f), posix::kRdWr));
        writer_fds_.push_back(fd);
      }
    }
    return Status::Ok();
  }

  // Reads every file once through the client (fills the caches).
  Status ReadAll(Stack& stack) {
    Domain::Scope scope(stack.client_domain().get());
    Buffer out(kPageSize);
    for (uint32_t f = 0; f < spec_.files; ++f) {
      ASSIGN_OR_RETURN(int fd,
                       stack.process().Open("/" + FilePath(f), posix::kRdWr));
      for (uint32_t p = 0; p < spec_.pages_per_file; ++p) {
        ASSIGN_OR_RETURN(size_t n, stack.process().Pread(
                                       fd, uint64_t{p} * kPageSize,
                                       out.mutable_span()));
        if (n != kPageSize ||
            std::memcmp(out.data(), model_[f].data() + p * kPageSize,
                        kPageSize) != 0) {
          return ErrCorrupted("warm read mismatch in " + FilePath(f));
        }
      }
      RETURN_IF_ERROR(stack.process().Close(fd));
    }
    return Status::Ok();
  }

  // Counts of one window. attempted and failed cover both clients; the
  // per-type counts, samples and rates cover the closed-loop client only.
  struct Window {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t completed = 0;  // ops of the closed-loop client that succeeded
    uint64_t c2_writes = 0;  // the second client's pwrites (remote stack)
    std::array<uint64_t, kNumOpTypes> ops{};
    std::array<uint64_t, kNumOpTypes> device_reads{};
    std::array<Samples, kNumOpTypes> samples;
    uint64_t user_bytes_written = 0;
    uint64_t c2_callbacks = 0;
    uint64_t hash = 0xcbf29ce484222325ull;
    std::vector<std::string> errors;
    // Completed ops per finished slice.
    std::vector<double> slice_rates;

    void EndSlice(uint64_t completed_ops, uint64_t slice_ns) {
      slice_rates.push_back(static_cast<double>(completed_ops) * 1e9 /
                            static_cast<double>(slice_ns));
      for (Samples& s : samples) {
        s.EndSlice();
      }
    }
  };

  // Runs generator steps until `deadline_ns` (wall) or `max_steps`.
  void Run(Stack& stack, uint64_t deadline_ns, uint64_t max_steps,
           Window& window) {
    stack_ = &stack;
    window_ = &window;
    tracer_ = stack.probes() ? &stack.probes()->tracer : nullptr;
    last_reads_ = stack.device()->stats().reads;
    Domain::Scope scope(stack.client_domain().get());
    uint64_t slice_start = WallNs();
    uint64_t slice_done = window.completed;
    for (uint64_t step = 0; max_steps == 0 || step < max_steps; ++step) {
      uint64_t now = WallNs();
      if (now - slice_start >= kSliceNs) {
        window.EndSlice(window.completed - slice_done, now - slice_start);
        slice_start = now;
        slice_done = window.completed;
      }
      if (max_steps == 0 && now >= deadline_ns) {
        break;
      }
      Step();
    }
    stack_ = nullptr;
    window_ = nullptr;
  }

  // Checks every file of a freshly mounted root against the model.
  Status VerifyAll(const sp<Context>& root) {
    Credentials creds = Credentials::System();
    Buffer out;
    for (uint32_t f = 0; f < spec_.files; ++f) {
      ASSIGN_OR_RETURN(sp<File> file, ResolveAs<File>(root, FilePath(f), creds));
      out.resize(model_[f].size());
      ASSIGN_OR_RETURN(size_t n, file->Read(0, out.mutable_span()));
      if (n != model_[f].size() ||
          std::memcmp(out.data(), model_[f].data(), n) != 0) {
        return ErrCorrupted("durability mismatch in " + FilePath(f));
      }
    }
    return Status::Ok();
  }

  // fsyncs every file at the layer files were seeded through.
  Status SyncFiles(Stack& stack) {
    Credentials creds = Credentials::System();
    for (uint32_t f = 0; f < spec_.files; ++f) {
      ASSIGN_OR_RETURN(sp<File> file,
                       ResolveAs<File>(stack.seed_root(), FilePath(f), creds));
      RETURN_IF_ERROR(file->SyncFile());
    }
    return Status::Ok();
  }

  // Drops the descriptors and mappings of the current stack.
  void Forget() {
    open_.clear();
    regions_.clear();
    writer_fds_.clear();
  }

 private:
  struct OpenFd {
    int fd;
    uint32_t file;
  };

  OpType ChooseOp() {
    uint64_t r = rng_.Below(1000);
    for (size_t i = 0; i < kNumOpTypes; ++i) {
      if (r < kAppMix[i]) {
        return static_cast<OpType>(i);
      }
      r -= kAppMix[i];
    }
    return OpType::kPread;
  }

  void Step() {
    OpType type = ChooseOp();
    bool needs_fd = type != OpType::kScan && type != OpType::kOpen;
    if (open_.empty() && needs_fd) {
      type = OpType::kOpen;
    }
    if (type == OpType::kClose && open_.size() <= 1) {
      type = OpType::kOpen;
    }
    if (type == OpType::kOpen && open_.size() >= kMaxOpenFds) {
      DoClose(rng_.Below(open_.size()));
    }
    switch (type) {
      case OpType::kOpen:
        DoOpen(chooser_.Next(rng_));
        break;
      case OpType::kClose:
        DoClose(rng_.Below(open_.size()));
        break;
      case OpType::kPread:
      case OpType::kPwrite:
      case OpType::kFstat:
      case OpType::kFsync:
        DoFdOp(type, rng_.Below(open_.size()),
               static_cast<uint32_t>(rng_.Below(spec_.pages_per_file)));
        break;
      case OpType::kScan:
        DoScan(chooser_.Next(rng_));
        break;
      case OpType::kNone:
        break;
    }
    if (spec_.c2_write_permille > 0 &&
        rng_.Below(1000) < spec_.c2_write_permille) {
      DoWriterWrite(chooser_.Next(rng_),
                    static_cast<uint32_t>(rng_.Below(spec_.pages_per_file)));
    }
  }

  // Times one op; `body` returns an error message, empty on success.
  // `check`, when given, compares what the op returned with the model after
  // the clock has stopped, so the comparison is not part of the latency. The
  // second client's writes count as attempted (and failed) ops but give no
  // per-type count, latency sample or device-read attribution.
  void Timed(OpType type, uint32_t file, uint32_t page,
             const std::function<std::string()>& body,
             const std::function<std::string()>& check = nullptr,
             bool second_client = false) {
    HashMix(window_->hash, (static_cast<uint64_t>(type) << 48) ^
                               (uint64_t{second_client} << 40) ^
                               (uint64_t{file} << 16) ^ page);
    ++window_->attempted;
    if (second_client) {
      ++window_->c2_writes;
    } else {
      ++window_->ops[static_cast<size_t>(type)];
    }
    if (tracer_) {
      tracer_->BeginOp(type);
    }
    uint64_t start = WallNs();
    std::string error = body();
    uint64_t elapsed = WallNs() - start;
    if (tracer_) {
      tracer_->EndOp();
    }
    uint64_t reads = stack_->device()->stats().reads;
    if (!second_client) {
      window_->device_reads[static_cast<size_t>(type)] += reads - last_reads_;
    }
    last_reads_ = reads;
    if (error.empty() && check) {
      error = check();
    }
    if (error.empty()) {
      if (!second_client) {
        ++window_->completed;
        window_->samples[static_cast<size_t>(type)].Add(elapsed);
      }
      return;
    }
    ++window_->failed;
    if (window_->errors.size() < 5) {
      window_->errors.push_back(std::string(OpName(type)) + " " +
                                FilePath(file) + ": " + error);
    }
  }

  void DoOpen(uint32_t file) {
    int fd = -1;
    Timed(OpType::kOpen, file, 0, [&]() -> std::string {
      Result<int> r = stack_->process().Open("/" + FilePath(file),
                                             posix::kRdWr);
      if (!r.ok()) {
        return r.status().ToString();
      }
      fd = *r;
      return "";
    });
    if (fd >= 0) {
      open_.push_back(OpenFd{fd, file});
    }
  }

  void DoClose(size_t index) {
    OpenFd victim = open_[index];
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(index));
    Timed(OpType::kClose, victim.file, 0, [&]() -> std::string {
      Status s = stack_->process().Close(victim.fd);
      return s.ok() ? "" : s.ToString();
    });
  }

  // Fills `page_buf_` with a unique page for a write of (file, page).
  void MakeWrite(uint32_t file, uint32_t page) {
    page_buf_ = payloads_[rng_.Below(payloads_.size())];
    uint64_t stamp[2] = {++write_serial_, (uint64_t{file} << 32) | page};
    std::memcpy(page_buf_.data(), stamp, sizeof(stamp));
  }

  std::string CheckPage(uint32_t file, uint32_t page, size_t n) const {
    if (n != kPageSize) {
      return "short read";
    }
    if (std::memcmp(read_buf_.data(),
                    model_[file].data() + uint64_t{page} * kPageSize,
                    kPageSize) != 0) {
      return "bytes differ from the model";
    }
    return "";
  }

  void DoFdOp(OpType type, size_t index, uint32_t page) {
    OpenFd target = open_[index];
    posix::Process& proc = stack_->process();
    uint64_t offset = uint64_t{page} * kPageSize;
    size_t read_len = 0;
    uint64_t stat_size = 0;
    switch (type) {
      case OpType::kPread:
        read_buf_.resize(kPageSize);
        Timed(
            type, target.file, page,
            [&]() -> std::string {
              Result<size_t> r =
                  proc.Pread(target.fd, offset, read_buf_.mutable_span());
              if (!r.ok()) {
                return r.status().ToString();
              }
              read_len = *r;
              return "";
            },
            [&] { return CheckPage(target.file, page, read_len); });
        return;
      case OpType::kPwrite:
        MakeWrite(target.file, page);
        Timed(type, target.file, page, [&]() -> std::string {
          Result<size_t> r = proc.Pwrite(target.fd, offset, page_buf_.span());
          if (!r.ok()) {
            return r.status().ToString();
          }
          return *r == kPageSize ? "" : "short write";
        });
        model_[target.file].WriteAt(offset, page_buf_.span());
        window_->user_bytes_written += kPageSize;
        return;
      case OpType::kFstat:
        Timed(
            type, target.file, page,
            [&]() -> std::string {
              Result<posix::StatBuf> r = proc.Fstat(target.fd);
              if (!r.ok()) {
                return r.status().ToString();
              }
              stat_size = r->size;
              return "";
            },
            [&]() -> std::string {
              return stat_size == model_[target.file].size() ? ""
                                                             : "wrong size";
            });
        return;
      case OpType::kFsync:
        Timed(type, target.file, page, [&]() -> std::string {
          Status s = proc.Fsync(target.fd);
          return s.ok() ? "" : s.ToString();
        });
        return;
      default:
        return;
    }
  }

  // The client VMM's mapping of a file, made on first use.
  Result<sp<MappedRegion>> RegionFor(uint32_t file) {
    auto it = regions_.find(file);
    if (it != regions_.end()) {
      return it->second;
    }
    ASSIGN_OR_RETURN(sp<File> f, ResolveAs<File>(stack_->client_root(),
                                                 FilePath(file),
                                                 Credentials::User("posix")));
    ASSIGN_OR_RETURN(sp<MappedRegion> region,
                     stack_->vmm()->Map(f, AccessRights::kReadOnly));
    regions_.emplace(file, region);
    return region;
  }

  // One sequential read of kScanPages pages through the client VMM: the
  // start file, then the next files of the same directory, into one buffer
  // that is compared with the model after the read is timed.
  void DoScan(uint32_t start) {
    std::vector<uint32_t> files;
    read_buf_.resize(uint64_t{kScanPages} * kPageSize);
    Timed(
        OpType::kScan, start, 0,
        [&]() -> std::string {
          uint64_t at = 0;
          uint32_t file = start;
          while (at < read_buf_.size()) {
            uint64_t len = std::min<uint64_t>(
                read_buf_.size() - at, uint64_t{spec_.pages_per_file} * kPageSize);
            Result<sp<MappedRegion>> region = RegionFor(file);
            if (!region.ok()) {
              return region.status().ToString();
            }
            Status s = (*region)->Read(
                0, read_buf_.mutable_span().subspan(at, len));
            if (!s.ok()) {
              return s.ToString();
            }
            files.push_back(file);
            at += len;
            file = (file + kLeaves) % spec_.files;
          }
          return "";
        },
        [&]() -> std::string {
          uint64_t at = 0;
          for (uint32_t file : files) {
            uint64_t len = std::min<uint64_t>(
                read_buf_.size() - at, uint64_t{spec_.pages_per_file} * kPageSize);
            if (std::memcmp(read_buf_.data() + at, model_[file].data(),
                            len) != 0) {
              return "scan of " + FilePath(file) + " differs from the model";
            }
            at += len;
          }
          return "";
        });
  }

  // The second client's write (remote stack): a pwrite into a file the
  // first client reads, timed apart from the first client's ops.
  void DoWriterWrite(uint32_t file, uint32_t page) {
    Domain::Scope scope(stack_->writer_domain().get());
    MakeWrite(file, page);
    uint64_t before = metrics::StatValue(*stack_->server(), "callbacks_sent");
    uint64_t offset = uint64_t{page} * kPageSize;
    Timed(OpType::kPwrite, file, page, [&]() -> std::string {
      Result<size_t> r =
          stack_->writer()->Pwrite(writer_fds_[file], offset, page_buf_.span());
      if (!r.ok()) {
        return r.status().ToString();
      }
      return *r == kPageSize ? "" : "short write";
    }, nullptr, /*second_client=*/true);
    window_->c2_callbacks +=
        metrics::StatValue(*stack_->server(), "callbacks_sent") - before;
    model_[file].WriteAt(offset, page_buf_.span());
    window_->user_bytes_written += kPageSize;
  }

  const WorkloadSpec& spec_;
  Rng rng_;
  FileChooser chooser_;
  std::vector<Buffer> payloads_;
  std::vector<Buffer> model_;
  std::vector<OpenFd> open_;
  std::map<uint32_t, sp<MappedRegion>> regions_;
  std::vector<int> writer_fds_;
  Buffer page_buf_;
  Buffer read_buf_;
  uint64_t write_serial_ = 0;

  Stack* stack_ = nullptr;
  Window* window_ = nullptr;
  Tracer* tracer_ = nullptr;
  uint64_t last_reads_ = 0;
};

// --- one measured window -----------------------------------------------------

struct WindowResult {
  Generator::Window window;
  double wall_s = 0;
  uint64_t sim_ns = 0;
  BlockDeviceStats device{};
  uint64_t device_sim_ns = 0;
  metrics::Registry::Snapshot delta;
  // Traced windows only.
  uint64_t xdc_own_ns = 0;
  std::array<uint64_t, kNumOpTypes> xdc_by_op{};
  uint64_t wire_sim_ns = 0;
  uint64_t door_sim_ns = 0;
  uint64_t dev_busy_ns = 0;
};

BlockDeviceStats Minus(const BlockDeviceStats& a, const BlockDeviceStats& b) {
  BlockDeviceStats d;
  d.reads = a.reads - b.reads;
  d.writes = a.writes - b.writes;
  d.flushes = a.flushes - b.flushes;
  return d;
}

WindowResult MeasureWindow(Generator& gen, Stack& stack, double seconds,
                           uint64_t max_ops) {
  WindowResult result;
  Probes* probes = stack.probes();
  if (probes) {
    probes->tracer.ResetWindow();
    probes->transport.Reset();
    probes->counting->Reset();
  }
  uint64_t wire_sim0 = probes ? probes->wire_clock.slept_ns() : 0;
  uint64_t door_sim0 = probes ? probes->door_clock.slept_ns() : 0;
  metrics::Registry::Snapshot before = metrics::Registry::Global().Collect();
  BlockDeviceStats dev0 = stack.device()->stats();
  uint64_t device_sim0 = stack.device_sim_ns();
  TimeNs sim0 = stack.clock().Now();
  uint64_t start = WallNs();
  gen.Run(stack, start + static_cast<uint64_t>(seconds * 1e9), max_ops,
          result.window);
  uint64_t end = WallNs();
  result.wall_s = static_cast<double>(end - start) / 1e9;
  result.sim_ns = stack.clock().Now() - sim0;
  result.device = Minus(stack.device()->stats(), dev0);
  result.device_sim_ns = stack.device_sim_ns() - device_sim0;
  result.delta =
      metrics::Delta(before, metrics::Registry::Global().Collect());
  if (probes) {
    result.xdc_own_ns = probes->transport.own_ns();
    for (size_t i = 0; i < kNumOpTypes; ++i) {
      result.xdc_by_op[i] =
          probes->transport.calls_during(static_cast<OpType>(i));
    }
    result.wire_sim_ns = probes->wire_clock.slept_ns() - wire_sim0;
    result.door_sim_ns = probes->door_clock.slept_ns() - door_sim0;
    result.dev_busy_ns = probes->counting->busy_ns();
  }
  return result;
}

// The window's counts, by the names the self-checks and tests use.
std::map<std::string, uint64_t> CountsOf(const WindowResult& w, bool traced) {
  std::map<std::string, uint64_t> c;
  const auto& d = w.delta;
  for (size_t i = 0; i < kNumOpTypes; ++i) {
    std::string op = OpName(static_cast<OpType>(i));
    c["ops." + op] = w.window.ops[i];
    c["dev.reads." + op] = w.window.device_reads[i];
    if (traced) {
      c["xdc." + op] = w.xdc_by_op[i];
    }
  }
  c["traced"] = traced ? 1 : 0;
  c["ops"] = w.window.attempted;
  c["ops.c2_pwrite"] = w.window.c2_writes;
  c["failed"] = w.window.failed;
  c["dev.reads"] = w.device.reads;
  c["dev.writes"] = w.device.writes;
  c["dev.flushes"] = w.device.flushes;
  c["sim_ns"] = w.sim_ns;
  c["user_bytes_written"] = w.window.user_bytes_written;
  c["net.messages"] = SumMatching(d, "net/", "messages");
  c["net.bytes"] = SumMatching(d, "net/", "bytes");
  c["net.retransmits"] = SumMatching(d, "net/", "rack_retransmits") +
                         SumMatching(d, "net/", "rto_retransmits");
  c["dfs.calls"] = SumMatching(d, "layer/dfs_client/", "calls_sent");
  c["dfs.retries"] = SumMatching(d, "layer/dfs_client/", "retries");
  c["dfs.callbacks_sent"] = SumMatching(d, "layer/dfs_server/",
                                        "callbacks_sent");
  c["dfs.callbacks_by_c2"] = w.window.c2_callbacks;
  c["compfs.compressed"] = SumMatching(d, "layer/compfs/", "blocks_compressed");
  c["compfs.decompressed"] =
      SumMatching(d, "layer/compfs/", "blocks_decompressed");
  c["compfs.bytes_logical"] = SumMatching(d, "layer/compfs/", "bytes_logical");
  c["compfs.bytes_stored"] = SumMatching(d, "layer/compfs/", "bytes_stored");
  c["domain.cross"] = SumMatching(d, "domain/", "/cross_calls");
  c["domain.inline"] = SumMatching(d, "domain/", "/inline_calls");
  for (const char* name : {"data_cache_hits", "data_cache_misses",
                           "attr_cache_hits", "attr_cache_misses",
                           "lower_page_ins", "lower_page_outs"}) {
    c[std::string("coherent.") + name] =
        SumMatching(d, "layer/coherency/", name);
  }
  for (const char* name : {"faults", "page_hits", "read_ahead_hits",
                           "evictions", "flush_backs", "deny_writes",
                           "write_backs"}) {
    c[std::string("vmm.") + name] = SumMatching(d, "vmm/client/", name);
  }
  c["ufs.inode_cache_hits"] = SumMatching(d, "ufs/", "inode_cache_hits");
  c["ufs.inode_cache_misses"] = SumMatching(d, "ufs/", "inode_cache_misses");
  c["ufs.journal_commits"] = SumMatching(d, "ufs/", "journal_commits");
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Median of the per-slice rates (the whole window's when no slice ended).
double OpsPerSecond(const WindowResult& w) {
  if (!w.window.slice_rates.empty()) {
    return Median(w.window.slice_rates);
  }
  return Ratio(static_cast<double>(w.window.completed), w.wall_s);
}

std::vector<Metric> EndToEnd(WindowResult& w, double setup_s) {
  auto& s = w.window.samples;
  auto at = [&](OpType t) -> Samples& { return s[static_cast<size_t>(t)]; };
  double ops = static_cast<double>(w.window.attempted);
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s", 0});
  m.push_back({"ops_per_s", OpsPerSecond(w), "1/s", w.window.completed});
  struct Q {
    const char* name;
    OpType type;
    size_t quantile;  // index into kQuantiles
  };
  for (const Q& q : {Q{"open_p50_us", OpType::kOpen, 0},
                     Q{"open_p99_us", OpType::kOpen, 1},
                     Q{"read_p50_us", OpType::kPread, 0},
                     Q{"read_p99_us", OpType::kPread, 1},
                     Q{"write_p50_us", OpType::kPwrite, 0},
                     Q{"write_p99_us", OpType::kPwrite, 1},
                     Q{"stat_p50_us", OpType::kFstat, 0},
                     Q{"stat_p99_us", OpType::kFstat, 1},
                     Q{"fsync_p50_us", OpType::kFsync, 0},
                     Q{"scan_p50_us", OpType::kScan, 0}}) {
    // A latency without samples is left out, so the result lacks it.
    Samples& samples = at(q.type);
    if (std::optional<double> us = samples.MedianUs(q.quantile)) {
      m.push_back({q.name, *us, "us", samples.count});
    }
  }
  m.push_back({"sim_wait_us_per_op",
               Ratio(static_cast<double>(w.sim_ns) / 1000.0, ops), "us",
               w.window.attempted});
  m.push_back({"failed_op_share",
               Ratio(static_cast<double>(w.window.failed), ops), "share",
               w.window.attempted});
  m.push_back({"device_write_bytes_per_user_byte",
               Ratio(static_cast<double>(w.device.writes) * ufs::kBlockSize,
                     static_cast<double>(w.window.user_bytes_written)),
               "B/B", w.window.user_bytes_written});
  m.push_back({"peak_rss_mib", PeakRssMib(), "MiB", 0});
  return m;
}

std::vector<Metric> PerLayer(const WorkloadSpec& spec, const WindowResult& w,
                             const Tracer& tracer,
                             const std::map<std::string, uint64_t>& c,
                             double overhead_pct) {
  const bool remote = spec.stack == StackKind::kRemote;
  double ops = static_cast<double>(std::max<uint64_t>(1, w.window.attempted));
  double kops = ops / 1000.0;
  auto n = [&](const char* key) -> double {
    auto it = c.find(key);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto us = [](uint64_t ns) { return static_cast<double>(ns) / 1000.0; };
  auto down = [&](SeamId seam) -> const Tracer::SeamTotals& {
    return tracer.totals(seam, Direction::kDown);
  };
  double opens = n("ops.open");
  double scans = n("ops.scan");

  // posix: the generator's op spans minus the seam spans below them, over
  // the descriptor ops (a scan's own time is VMM work, not the shim's).
  uint64_t posix_self = 0;
  uint64_t posix_ops = 0;
  for (size_t i = 0; i < kNumOpTypes; ++i) {
    if (static_cast<OpType>(i) == OpType::kScan) {
      continue;
    }
    posix_self += tracer.op_totals()[i].self_ns;
    posix_ops += tracer.op_totals()[i].calls;
  }

  // The coherency layer heads the SFS: served at the posix seam locally,
  // at the compfs>sfs seam under COMPFS.
  uint64_t coherent_self =
      down(remote ? SeamId::kCompSfs : SeamId::kPosix).self_ns;
  const Tracer::SeamTotals& disk = down(SeamId::kCohDisk);
  uint64_t disk_self =
      disk.self_ns > w.dev_busy_ns ? disk.self_ns - w.dev_busy_ns : 0;
  uint64_t dfs_self = remote ? down(SeamId::kPosix).self_ns : 0;

  double data_hits = n("coherent.data_cache_hits");
  double attr_hits = n("coherent.attr_cache_hits");
  double vmm_hits = n("vmm.page_hits");
  double ufs_hits = n("ufs.inode_cache_hits");
  double callbacks = n("vmm.flush_backs") + n("vmm.deny_writes") +
                     n("vmm.write_backs") + n("dfs.callbacks_sent");
  double dev_ios = static_cast<double>(w.device.reads + w.device.writes +
                                       w.device.flushes);
  double cross_calls = n("domain.cross");

  std::vector<Metric> m = {
      {"posix.self_us_per_op", Ratio(us(posix_self), posix_ops), "us",
       posix_ops},
      {"naming.resolve_us_per_open", Ratio(us(tracer.resolve_ns(SeamId::kPosix)),
                                           opens),
       "us", static_cast<uint64_t>(opens)},
      {"naming.resolve_calls_per_open",
       Ratio(static_cast<double>(tracer.resolves(SeamId::kPosix) +
                                 tracer.resolves(SeamId::kCohDisk) +
                                 tracer.resolves(SeamId::kDfsComp) +
                                 tracer.resolves(SeamId::kCompSfs)),
             opens),
       "count", 0},
      {"obj.cross_calls_per_op", cross_calls / ops, "count", 0},
      {"obj.cross_us_per_call", Ratio(us(w.xdc_own_ns), cross_calls), "us",
       static_cast<uint64_t>(cross_calls)},
      {"obj.inline_calls_per_op", n("domain.inline") / ops, "count", 0},
      {"coherent.self_us_per_op", us(coherent_self) / ops, "us", 0},
      {"coherent.data_hit_ratio",
       Ratio(data_hits, data_hits + n("coherent.data_cache_misses")), "ratio",
       0},
      {"coherent.attr_hit_ratio",
       Ratio(attr_hits, attr_hits + n("coherent.attr_cache_misses")), "ratio",
       0},
      {"coherent.lower_page_ins_per_op", n("coherent.lower_page_ins") / ops,
       "count", 0},
      {"coherent.lower_page_outs_per_op", n("coherent.lower_page_outs") / ops,
       "count", 0},
      {"coherency.cache_callbacks_per_kop", callbacks / kops, "count", 0},
      {"vmm.faults_per_scan", Ratio(n("vmm.faults"), scans), "count", 0},
      {"vmm.page_hit_ratio", Ratio(vmm_hits, vmm_hits + n("vmm.faults")),
       "ratio", 0},
      {"vmm.read_ahead_hits_per_scan", Ratio(n("vmm.read_ahead_hits"), scans),
       "count", 0},
      {"vmm.evictions_per_scan", Ratio(n("vmm.evictions"), scans), "count", 0},
      {"disklayer.calls_per_op", static_cast<double>(disk.calls) / ops,
       "count", 0},
      {"disklayer.self_us_per_op", us(disk_self) / ops, "us", 0},
      {"ufs.inode_cache_hit_ratio",
       Ratio(ufs_hits, ufs_hits + n("ufs.inode_cache_misses")), "ratio", 0},
      {"ufs.journal_commits_per_kop", n("ufs.journal_commits") / kops, "count",
       0},
      {"blockdev.reads_per_op", static_cast<double>(w.device.reads) / ops,
       "count", 0},
      {"blockdev.writes_per_op", static_cast<double>(w.device.writes) / ops,
       "count", 0},
      {"blockdev.flushes_per_kop",
       static_cast<double>(w.device.flushes) / kops, "count", 0},
      {"blockdev.us_per_io", Ratio(us(w.dev_busy_ns), dev_ios), "us", 0},
      {"blockdev.sim_us_per_op", us(w.device_sim_ns) / ops, "us", 0},
      {"compfs.self_us_per_op", us(down(SeamId::kDfsComp).self_ns) / ops, "us",
       0},
      {"compfs.blocks_compressed_per_kop", n("compfs.compressed") / kops,
       "count", 0},
      {"compfs.blocks_decompressed_per_kop", n("compfs.decompressed") / kops,
       "count", 0},
      {"compfs.stored_per_logical_byte",
       Ratio(n("compfs.bytes_stored"), n("compfs.bytes_logical")), "B/B", 0},
      {"dfs.self_us_per_op", us(dfs_self) / ops, "us", 0},
      {"dfs.calls_per_op", n("dfs.calls") / ops, "count", 0},
      {"dfs.retries_per_kop", n("dfs.retries") / kops, "count", 0},
      {"net.frames_per_op", n("net.messages") / ops, "count", 0},
      {"net.bytes_per_op", n("net.bytes") / ops, "B", 0},
      {"net.sim_us_per_op", us(w.wire_sim_ns) / ops, "us", 0},
      {"net.retransmits_per_kop", n("net.retransmits") / kops, "count", 0},
      {"obj.door_sim_us_per_op", us(w.door_sim_ns) / ops, "us", 0},
      {"trace.overhead_pct", overhead_pct, "%", 0},
  };
  return m;
}

// Builds, seeds and warms one stack.
Result<std::unique_ptr<Stack>> SetUp(const WorkloadSpec& spec, bool traced,
                                     Generator& gen) {
  ASSIGN_OR_RETURN(std::unique_ptr<Stack> stack, Stack::Build(spec, traced));
  RETURN_IF_ERROR(gen.Seed(*stack));
  if (spec.warm_read_all) {
    RETURN_IF_ERROR(gen.ReadAll(*stack));
  }
  return stack;
}

// Syncs, drops the stack, fscks and remounts the device, and compares every
// file with the model.
Status CheckDurable(Stack& stack, Generator& gen,
                    std::vector<std::string>& notes) {
  gen.Forget();
  RETURN_IF_ERROR(gen.SyncFiles(stack));
  RETURN_IF_ERROR(stack.SyncAndRelease());
  if (stack.disk_outlived_release()) {
    notes.push_back(
        "the dropped stack's disk layer is still referenced (library "
        "reference cycle), so its UFS was not unmounted before the remount");
  }
  ASSIGN_OR_RETURN(sp<Context> root, stack.RemountForCheck());
  return gen.VerifyAll(root);
}

}  // namespace

std::vector<std::string> CheckLayerClaims(
    const std::string& workload, const std::map<std::string, uint64_t>& c) {
  auto n = [&](const std::string& key) -> uint64_t {
    auto it = c.find(key);
    return it == c.end() ? 0 : it->second;
  };
  std::vector<std::string> v;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      v.push_back(workload + ": " + what);
    }
  };
  if (workload == "hot_stack") {
    // The cached ops must not reach the device. fsync does by design (the
    // journal commit re-reads inode-table blocks), and so do scans whose
    // VMM read-ahead cluster runs past the end of a mapped file; both are
    // reported as dev.reads.fsync / dev.reads.scan, not gated.
    uint64_t cached_reads = n("dev.reads.open") + n("dev.reads.close") +
                            n("dev.reads.pread") + n("dev.reads.pwrite") +
                            n("dev.reads.fstat");
    expect(cached_reads == 0,
           "expected 0 device reads on open/close/pread/pwrite/fstat, saw " +
               std::to_string(cached_reads));
    expect(n("net.messages") == 0, "expected 0 net frames");
    if (n("traced") != 0) {
      uint64_t cached = n("xdc.pread") + n("xdc.pwrite") + n("xdc.fstat");
      expect(cached == 0, "expected 0 domain crossings on cached "
                          "pread/pwrite/fstat, saw " +
                              std::to_string(cached));
    }
  } else if (workload == "cold_disk") {
    uint64_t preads = n("ops.pread");
    expect(preads > 0 && n("dev.reads.pread") * 10 >= preads * 9,
           "expected >= 0.9 device reads per pread, saw " +
               std::to_string(n("dev.reads.pread")) + " over " +
               std::to_string(preads));
    expect(n("net.messages") == 0, "expected 0 net frames");
  } else if (workload == "remote_fig9") {
    expect(n("compfs.decompressed") > 0, "expected COMPFS decompressions");
    expect(n("dfs.callbacks_by_c2") > 0,
           "expected server callbacks caused by the second client");
    expect(n("dfs.retries") == 0, "expected 0 DFS retries on a clean link");
  }
  return v;
}

RunResult RunWorkload(const WorkloadSpec& spec, const RunConfig& cfg) {
  RunResult result;
  auto fail = [&](const std::string& what, const Status& status) {
    result.errors.push_back(what + ": " + status.ToString());
    ++result.failed;
    ++result.attempted;
    return result;
  };

  // Set-up is repeated (each time from the same seed); the last stack is
  // the one measured.
  std::unique_ptr<Generator> gen;
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_times;
  for (int r = 0; r < std::max(1, cfg.setup_repeats); ++r) {
    if (gen) {
      gen->Forget();
    }
    stack.reset();
    uint64_t start = WallNs();
    gen = std::make_unique<Generator>(spec, cfg.seed);
    Result<std::unique_ptr<Stack>> built = SetUp(spec, false, *gen);
    if (!built.ok()) {
      return fail("set-up", built.status());
    }
    stack = std::move(*built);
    // Warm-up: the mix itself, unmeasured.
    Generator::Window warm;
    gen->Run(*stack, 0, spec.warmup_ops, warm);
    if (warm.failed != 0) {
      result.errors = warm.errors;
      return fail("warm-up", ErrIoError("warm-up ops failed"));
    }
    setup_times.push_back(static_cast<double>(WallNs() - start) / 1e9);
  }
  std::sort(setup_times.begin(), setup_times.end());
  double setup_s = setup_times[setup_times.size() / 2];

  double window_s = cfg.traced ? cfg.seconds / 2 : cfg.seconds;
  uint64_t gen_start = WallNs();
  WindowResult w = MeasureWindow(*gen, *stack, window_s, cfg.max_ops);
  result.generator_wall_s = static_cast<double>(WallNs() - gen_start) / 1e9;
  result.attempted = w.window.attempted;
  result.failed = w.window.failed;
  result.errors = w.window.errors;
  result.op_sequence_hash = w.window.hash;
  result.sim_ns = w.sim_ns;
  result.counts = CountsOf(w, false);
  result.violations = CheckLayerClaims(spec.name, result.counts);
  result.end_to_end = EndToEnd(w, setup_s);
  result.slice_rates = w.window.slice_rates;

  Status durable = CheckDurable(*stack, *gen, result.notes);
  if (!durable.ok()) {
    result.errors.push_back("durability: " + durable.ToString());
  }
  result.durable = durable.ok();
  stack.reset();
  if (!cfg.traced) {
    return result;
  }

  // The traced run: a fresh stack with every probe in place.
  Generator traced_gen(spec, cfg.seed);
  Result<std::unique_ptr<Stack>> built = SetUp(spec, true, traced_gen);
  if (!built.ok()) {
    return fail("traced set-up", built.status());
  }
  std::unique_ptr<Stack> traced = std::move(*built);
  Generator::Window warm;
  traced_gen.Run(*traced, 0, spec.warmup_ops, warm);
  WindowResult tw = MeasureWindow(traced_gen, *traced, window_s, cfg.max_ops);
  result.attempted += tw.window.attempted;
  result.failed += tw.window.failed + warm.failed;
  for (const std::string& e : tw.window.errors) {
    result.errors.push_back("traced " + e);
  }
  result.traced_counts = CountsOf(tw, true);
  for (const std::string& v :
       CheckLayerClaims(spec.name, result.traced_counts)) {
    result.violations.push_back("traced " + v);
  }
  double untraced_rate = result.end_to_end[1].value;
  double traced_rate = OpsPerSecond(tw);
  double overhead = Ratio(untraced_rate - traced_rate, untraced_rate) * 100.0;
  const Tracer& tracer = traced->probes()->tracer;
  result.per_layer =
      PerLayer(spec, tw, tracer, result.traced_counts, overhead);
  result.spans_kept = tracer.kept_spans();
  result.spans_dropped = tracer.dropped_spans();
  if (!cfg.span_file.empty() && tracer.WriteSpans(cfg.span_file)) {
    result.span_file_written = cfg.span_file;
  }
  std::vector<std::string> traced_notes;  // as the untraced check's
  Status traced_durable = CheckDurable(*traced, traced_gen, traced_notes);
  if (!traced_durable.ok()) {
    result.errors.push_back("traced durability: " + traced_durable.ToString());
    result.durable = false;
  }
  return result;
}

}  // namespace springbench
