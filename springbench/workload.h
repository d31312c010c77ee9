// The springfs workload benchmark: one seeded, single-threaded, closed-loop
// generator that drives an application-style op mix through posix::Process
// plus mapped sequential scans through a client Vmm, over one of three
// stacks. Every modelled cost (device latency, wire latency, door calls)
// runs on one shared virtual clock, so wall time measures the program's own
// CPU and simulated time is reported separately.

#ifndef SPRINGBENCH_WORKLOAD_H_
#define SPRINGBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "tracing.h"

namespace springbench {

enum class StackKind {
  kSfs,     // coherency layer over disk layer, hand-assembled
  kRemote,  // DFS server -> COMPFS -> SFS, two DFS clients
};

struct WorkloadSpec {
  std::string name;
  StackKind stack = StackKind::kSfs;
  bool two_domains = true;         // coherency and disk layers apart
  bool coherency_caches = true;    // data and attribute caching (Table 2)
  uint32_t files = 256;
  uint32_t pages_per_file = 16;
  uint64_t device_blocks = 16384;  // 4 KiB blocks
  size_t vmm_max_pages = 0;        // client VMM bound; 0 = unbounded
  double zipf_s = 0.0;             // file-choice skew; 0 = uniform
  // Remote stack only: share of ops a second client writes, in per-mille.
  uint32_t c2_write_permille = 0;
  uint32_t warmup_ops = 2000;
  bool warm_read_all = false;      // read every file once before warm-up
};

// The named workloads; nullopt for an unknown name.
std::optional<WorkloadSpec> SpecFor(const std::string& name);
std::vector<std::string> WorkloadNames();

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  // When non-zero the timed window runs exactly this many ops instead of
  // running for `seconds` (deterministic runs for tests).
  uint64_t max_ops = 0;
  bool traced = false;
  int setup_repeats = 5;  // setup_s is the median of these
  std::string span_file;  // traced runs write their spans here when set
};

// One measured metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // latency metrics: samples behind the value
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;       // first few op failures
  std::vector<std::string> violations;   // exercise/bypass self-checks
  std::vector<std::string> notes;        // known defects seen, not failures
  bool durable = false;                  // remount + fsck + bytes matched
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;         // traced runs only
  double generator_wall_s = 0;
  std::vector<double> slice_rates;       // ops/s of each untraced slice
  // Deterministic fingerprints of the timed window (tests compare them).
  uint64_t op_sequence_hash = 0;
  uint64_t sim_ns = 0;
  std::map<std::string, uint64_t> counts;
  std::map<std::string, uint64_t> traced_counts;  // traced runs only
  std::string span_file_written;
  uint64_t spans_kept = 0;
  uint64_t spans_dropped = 0;

  bool correct() const {
    return failed == 0 && violations.empty() && durable;
  }
};

// Runs one workload. With cfg.traced the untraced window takes the first
// half of cfg.seconds and the traced window the second half.
RunResult RunWorkload(const WorkloadSpec& spec, const RunConfig& cfg);

// The exercise/bypass self-checks of a workload, evaluated on the window's
// counts (exposed for the tests).
std::vector<std::string> CheckLayerClaims(
    const std::string& workload, const std::map<std::string, uint64_t>& counts);

}  // namespace springbench

#endif  // SPRINGBENCH_WORKLOAD_H_
