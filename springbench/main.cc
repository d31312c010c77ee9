// springbench: runs one named workload of the springfs benchmark.
//
//   springbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--span-file <path>]
//
// Prints the run's state and every metric by name and unit, then, as the
// last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a separately traced window. (run.py keeps the ones
// BENCHMARK.json lists.) Exits non-zero when an op
// failed, the bytes read back differ from the model, the remounted device
// is not durable and fsck-clean, or a layer self-check fails.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "workload.h"

using springbench::Metric;
using springbench::RunConfig;
using springbench::RunResult;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: springbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--span-file <path>]\n");
  return 2;
}

void PrintMetric(const Metric& m) {
  if (m.samples > 0) {
    std::printf("  %-36s %14.4f %-6s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  } else {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[512];
  for (const Metric& m : metrics) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", m.name.c_str(), m.value,
                  m.unit.c_str());
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig cfg;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && cfg.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      cfg.traced = value == "1";
    } else if (arg == "--span-file") {
      cfg.span_file = value;
    } else {
      return Usage();
    }
  }
  std::optional<springbench::WorkloadSpec> spec = springbench::SpecFor(workload);
  if (!spec || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }

  RunResult r = springbench::RunWorkload(*spec, cfg);

  std::printf("workload %s  seed %llu  seconds %.3g  traced %d\n",
              workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.traced ? 1 : 0);
  std::printf("generator wall %.3f s, ops attempted %llu, failed %llu, "
              "durable %s\n",
              r.generator_wall_s, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.durable ? "yes" : "no");
  std::printf("slice rates (ops/s):");
  for (double rate : r.slice_rates) {
    std::printf(" %.0f", rate);
  }
  std::printf("\n");
  for (const std::string& e : r.errors) {
    std::printf("  error: %s\n", e.c_str());
  }
  for (const std::string& v : r.violations) {
    std::printf("  self-check failed: %s\n", v.c_str());
  }
  for (const std::string& n : r.notes) {
    std::printf("  note: %s\n", n.c_str());
  }
  std::printf("window counts (untraced):");
  int column = 0;
  for (const auto& [name, value] : r.counts) {
    std::printf("%s%s=%llu", column++ % 6 == 0 ? "\n  " : "  ", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("\nend-to-end (untraced window):\n");
  for (const Metric& m : r.end_to_end) {
    PrintMetric(m);
  }
  if (cfg.traced) {
    std::printf("per-layer (traced window; %llu spans kept, %llu dropped%s%s):\n",
                static_cast<unsigned long long>(r.spans_kept),
                static_cast<unsigned long long>(r.spans_dropped),
                r.span_file_written.empty() ? "" : ", written to ",
                r.span_file_written.c_str());
    for (const Metric& m : r.per_layer) {
      PrintMetric(m);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, r.attempted)),
              static_cast<unsigned long long>(r.failed),
              JsonMetrics(cfg.traced ? r.per_layer : r.end_to_end).c_str());
  return r.correct() ? 0 : 1;
}
