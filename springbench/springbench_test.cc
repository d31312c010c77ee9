// Tests of the benchmark itself: the generator is deterministic for a seed,
// the measuring seams are transparent (a traced run does exactly the work an
// untraced one does), and the exercise/bypass self-checks fail on workloads
// that violate them.

#include <gtest/gtest.h>

#include "workload.h"

namespace springbench {
namespace {

// The named workload, shrunk so a test run takes a fraction of a second.
WorkloadSpec Small(const std::string& name) {
  WorkloadSpec spec = *SpecFor(name);
  spec.files = 64;
  spec.warmup_ops = 200;
  return spec;
}

RunConfig Fixed(uint64_t seed, uint64_t ops, bool traced = false) {
  RunConfig cfg;
  cfg.seed = seed;
  cfg.max_ops = ops;
  cfg.traced = traced;
  cfg.setup_repeats = 1;
  return cfg;
}

// Counts that do not depend on how the run was observed.
std::map<std::string, uint64_t> WorkCounts(std::map<std::string, uint64_t> c) {
  c.erase("traced");
  for (auto it = c.begin(); it != c.end();) {
    it = it->first.rfind("xdc.", 0) == 0 ? c.erase(it) : std::next(it);
  }
  return c;
}

class PerWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(PerWorkload, SameSeedSameOpsSimTimeAndCounts) {
  WorkloadSpec spec = Small(GetParam());
  RunResult a = RunWorkload(spec, Fixed(7, 3000));
  RunResult b = RunWorkload(spec, Fixed(7, 3000));
  ASSERT_TRUE(a.correct()) << (a.errors.empty() ? "" : a.errors[0]);
  ASSERT_TRUE(b.correct());
  EXPECT_EQ(a.op_sequence_hash, b.op_sequence_hash);
  EXPECT_EQ(a.sim_ns, b.sim_ns);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_GT(a.sim_ns, 0u);
}

TEST_P(PerWorkload, DifferentSeedDifferentOps) {
  WorkloadSpec spec = Small(GetParam());
  RunResult a = RunWorkload(spec, Fixed(7, 2000));
  RunResult b = RunWorkload(spec, Fixed(8, 2000));
  ASSERT_TRUE(a.correct());
  ASSERT_TRUE(b.correct());
  EXPECT_NE(a.op_sequence_hash, b.op_sequence_hash);
}

TEST_P(PerWorkload, TracedRunDoesTheSameWorkAndReportsEveryLayer) {
  WorkloadSpec spec = Small(GetParam());
  RunResult r = RunWorkload(spec, Fixed(9, 3000, /*traced=*/true));
  ASSERT_TRUE(r.correct()) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(WorkCounts(r.counts), WorkCounts(r.traced_counts));
  EXPECT_EQ(r.sim_ns, r.traced_counts.at("sim_ns"));
  ASSERT_FALSE(r.per_layer.empty());
  EXPECT_EQ(r.per_layer.back().name, "trace.overhead_pct");
  EXPECT_GT(r.spans_kept, 0u);
}

// A short run ends no 1-second slice, so every latency comes from the
// whole-window fallback; none may be missing or read 0.
TEST_P(PerWorkload, ShortRunReportsEveryLatency) {
  RunResult r = RunWorkload(Small(GetParam()), Fixed(5, 2000));
  ASSERT_TRUE(r.correct());
  size_t latencies = 0;
  for (const Metric& m : r.end_to_end) {
    if (m.unit == "us" && m.name != "sim_wait_us_per_op") {
      ++latencies;
      EXPECT_GT(m.value, 0) << m.name;
      EXPECT_GT(m.samples, 0u) << m.name;
    }
  }
  EXPECT_EQ(latencies, 10u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload,
                         ::testing::Values("hot_stack", "cold_disk",
                                           "remote_fig9"));

TEST(SelfChecks, NamedWorkloadsPassTheirOwnClaims) {
  for (const std::string& name : WorkloadNames()) {
    RunResult r = RunWorkload(Small(name), Fixed(3, 3000, /*traced=*/true));
    EXPECT_TRUE(r.violations.empty())
        << name << ": " << (r.violations.empty() ? "" : r.violations[0]);
  }
}

TEST(SelfChecks, HotStackClaimFailsWithoutTheCoherencyCache) {
  WorkloadSpec spec = Small("hot_stack");
  spec.coherency_caches = false;
  RunResult r = RunWorkload(spec, Fixed(3, 3000, /*traced=*/true));
  EXPECT_TRUE(r.failed == 0 && r.durable);
  EXPECT_FALSE(r.violations.empty());
}

TEST(SelfChecks, ColdDiskClaimFailsWhenTheCacheAbsorbsReads) {
  WorkloadSpec spec = Small("cold_disk");
  spec.coherency_caches = true;
  spec.warm_read_all = true;
  RunResult r = RunWorkload(spec, Fixed(3, 3000));
  EXPECT_TRUE(r.failed == 0 && r.durable);
  EXPECT_FALSE(r.violations.empty());
}

TEST(SelfChecks, RemoteClaimFailsWithoutTheSecondClient) {
  WorkloadSpec spec = Small("remote_fig9");
  spec.c2_write_permille = 0;
  RunResult r = RunWorkload(spec, Fixed(3, 3000));
  EXPECT_TRUE(r.failed == 0 && r.durable);
  EXPECT_FALSE(r.violations.empty());
}

TEST(SelfChecks, CountViolationsAreReported) {
  EXPECT_FALSE(CheckLayerClaims("hot_stack", {{"net.messages", 1}}).empty());
  EXPECT_FALSE(
      CheckLayerClaims("hot_stack", {{"traced", 1}, {"xdc.fstat", 1}}).empty());
  EXPECT_TRUE(CheckLayerClaims("hot_stack", {{"traced", 1}}).empty());
  EXPECT_FALSE(CheckLayerClaims("remote_fig9", {{"compfs.decompressed", 1},
                                                {"dfs.callbacks_by_c2", 1},
                                                {"dfs.retries", 1}})
                   .empty());
  EXPECT_TRUE(CheckLayerClaims("remote_fig9", {{"compfs.decompressed", 1},
                                               {"dfs.callbacks_by_c2", 1}})
                  .empty());
  EXPECT_FALSE(CheckLayerClaims("cold_disk", {{"ops.pread", 10},
                                              {"dev.reads.pread", 8}})
                   .empty());
  EXPECT_TRUE(CheckLayerClaims("cold_disk", {{"ops.pread", 10},
                                             {"dev.reads.pread", 9}})
                  .empty());
}

}  // namespace
}  // namespace springbench
