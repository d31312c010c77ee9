// Tests for the observability stack: springtrace span trees, the metrics
// registry, the per-layer report, and the Figure 7 claim re-proven through
// trace spans (DFS appears in bind traces but never in local page-in /
// page-out traces once binds are forwarded).

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/sfs/sfs.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/stat_report.h"
#include "src/obs/trace.h"
#include "src/posix/posix_shim.h"
#include "src/vmm/vmm.h"

namespace springfs {
namespace {

// --- span trees ---

TEST(TraceTest, InactiveByDefaultAndScopedSpansAreFree) {
  EXPECT_FALSE(trace::Active());
  trace::ScopedSpan span("never.recorded");
  EXPECT_FALSE(span.active());
}

TEST(TraceTest, SpanTreeShapeAcrossThreeLayerStack) {
  // VMM on a two-domain SFS: a first-touch mapped read runs a fault that
  // descends vmm -> coherency layer -> disk layer, crossing two domains.
  FakeClock clock;
  MemBlockDevice device(ufs::kBlockSize, 8192);
  SfsOptions options;
  options.placement = SfsPlacement::kTwoDomains;
  Sfs sfs = *CreateSfs(&device, options, &clock);
  Credentials sys = Credentials::System();
  sp<File> file = *sfs.root->CreateFile(*Name::Parse("traced"), sys);
  ASSERT_TRUE(file->SetLength(kPageSize).ok());

  sp<Domain> client_domain = Domain::Create("trace-client");
  sp<Vmm> vmm = Vmm::Create(client_domain, "trace-vmm");
  sp<MappedRegion> region = *vmm->Map(file, AccessRights::kReadOnly);

  trace::TraceRoot root("mapped_read", &clock);
  Buffer out(16);
  ASSERT_TRUE(region->Read(0, out.mutable_span()).ok());
  const trace::Span& tree = root.Finish();

  // The fault is in the tree, the coherency layer's page_in is *inside* the
  // fault, and the disk layer's domain is crossed somewhere below it —
  // causal nesting, not just presence.
  const trace::Span* fault = trace::FindFirst(tree, "vmm.fault");
  ASSERT_NE(fault, nullptr) << trace::ToString(tree);
  EXPECT_TRUE(trace::Contains(*fault, "coh.page_in")) << trace::ToString(tree);
  EXPECT_TRUE(trace::Contains(*fault, "xdc:sfs-disk")) << trace::ToString(tree);
  // Spans are timed by the injected clock and properly nested.
  EXPECT_GE(fault->end_ns, fault->start_ns);
  EXPECT_GE(fault->start_ns, tree.start_ns);
  EXPECT_LE(fault->end_ns, tree.end_ns);
  // Once finished, the thread is no longer tracing.
  EXPECT_FALSE(trace::Active());
}

TEST(TraceTest, NestedRootsDoNotMix) {
  FakeClock clock;
  trace::TraceRoot outer("outer", &clock);
  {
    trace::ScopedSpan before("outer.child");
  }
  {
    trace::TraceRoot inner("inner", &clock);
    trace::ScopedSpan hidden("inner.child");
  }
  {
    trace::ScopedSpan after("outer.child2");
  }
  const trace::Span& tree = outer.Finish();
  EXPECT_TRUE(trace::Contains(tree, "outer.child"));
  EXPECT_TRUE(trace::Contains(tree, "outer.child2"));
  EXPECT_FALSE(trace::Contains(tree, "inner.child"))
      << "inner roots must not leak spans into the outer tree";
}

// Figure 7, re-proven with spans instead of counters: the bind of a local
// client IS visible as a DFS forwarding span, but the page traffic that
// follows never touches DFS. A file resolved through a local sub-directory
// of the server behaves as one resolved through the root.
TEST(TraceTest, Figure7DfsInBindTraceButNotLocalPaging) {
  FakeClock clock;
  net::Network network(&clock, 1000);
  sp<net::Node> server_node = network.AddNode("server");
  MemBlockDevice device(ufs::kBlockSize, 8192);
  Sfs sfs = *CreateSfs(&device, SfsOptions{}, &clock);
  sp<dfs::DfsServer> server =
      *dfs::DfsServer::Create(server_node, &network, "dfs", sfs.root, &clock);

  Credentials sys = Credentials::System();
  ASSERT_TRUE(server->CreateContext(*Name::Parse("d"), sys).ok());
  for (const char* path : {"fig7", "d/fig7"}) {
    sp<File> created = *server->CreateFile(*Name::Parse(path), sys);
    ASSERT_TRUE(created->SetLength(kPageSize).ok());
  }
  sp<Context> dir = *ResolveAs<Context>(server, "d", sys);
  for (const sp<Context>& ctx : {sp<Context>(server), dir}) {
    SCOPED_TRACE(ctx == dir ? "through d" : "through the root");
    sp<File> file = *ResolveAs<File>(ctx, "fig7", sys);
    sp<Vmm> local_vmm = Vmm::Create(server_node->domain(), "local-vmm");

    // The bind (Map) goes through DfsLocalFile, which forwards it below.
    sp<MappedRegion> region;
    {
      trace::TraceRoot bind_root("map", &clock);
      region = *local_vmm->Map(file, AccessRights::kReadWrite);
      const trace::Span& tree = bind_root.Finish();
      EXPECT_TRUE(trace::Contains(tree, "dfs.bind_forward"))
          << trace::ToString(tree);
    }

    // First touch: a page-in fault. DFS must not appear anywhere in it.
    {
      trace::TraceRoot fault_root("first_touch", &clock);
      Buffer data(std::string("local"));
      ASSERT_TRUE(region->Write(0, data.span()).ok());
      const trace::Span& tree = fault_root.Finish();
      ASSERT_TRUE(trace::Contains(tree, "vmm.fault"))
          << trace::ToString(tree);
      EXPECT_TRUE(trace::FindAll(tree, "dfs.").empty())
          << "DFS in a local page-in path:\n" << trace::ToString(tree);
      EXPECT_TRUE(trace::FindAll(tree, "net.").empty())
          << "network hop in a local page-in path:\n"
          << trace::ToString(tree);
    }

    // Page-out (sync flushes the dirty page): same claim.
    {
      trace::TraceRoot sync_root("sync", &clock);
      ASSERT_TRUE(region->Sync().ok());
      const trace::Span& tree = sync_root.Finish();
      EXPECT_TRUE(trace::FindAll(tree, "dfs.").empty())
          << "DFS in a local page-out path:\n" << trace::ToString(tree);
    }
  }
}

// --- Domain::Run exception safety (the non-void slot + exception_ptr
// transfer through ThreadTransport) ---

TEST(DomainRunTest, ExceptionsPropagateAcrossDomains) {
  for (bool use_threads : {false, true}) {
    SCOPED_TRACE(use_threads ? "ThreadTransport" : "SpinTransport");
    SpinTransport spin;
    ThreadTransport threads;
    Transport* transport = use_threads ? static_cast<Transport*>(&threads)
                                       : static_cast<Transport*>(&spin);
    sp<Domain> domain = Domain::Create("thrower", transport);
    // Non-void result path: the result slot must stay untouched when the
    // op throws, and the exception must surface on the caller's thread.
    EXPECT_THROW(
        domain->Run([]() -> int { throw std::runtime_error("boom"); }),
        std::runtime_error);
    // The domain still works afterwards.
    EXPECT_EQ(domain->Run([] { return 7; }), 7);
  }
}

// --- metrics registry ---

TEST(MetricsTest, HistogramBucketsAndQuantiles) {
  metrics::Histogram h;
  h.Record(100);     // bucket 0 (<=128)
  h.Record(100);
  h.Record(1000);    // <=1024
  h.Record(1000000);
  metrics::Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum_ns, 1001200u);
  // Nearest-rank on floor(q * (count-1)): the median sample sits in the
  // first bucket, the max in the 1ms-ish bucket.
  EXPECT_EQ(snap.ApproxQuantileNs(0.5), 128u);
  EXPECT_EQ(snap.ApproxQuantileNs(0.99), 1024u);
  EXPECT_GE(snap.ApproxQuantileNs(1.0), 1000000u);
}

TEST(MetricsTest, ProvidersSumAcrossInstances) {
  struct Fixed : metrics::StatsProvider {
    std::string stats_prefix() const override { return "test/fixed"; }
    void CollectStats(const metrics::StatsEmitter& emit) const override {
      emit("ticks", 3);
    }
  };
  Fixed a, b;
  metrics::Registry& reg = metrics::Registry::Global();
  size_t before = reg.NumProviders();
  reg.RegisterProvider(&a);
  reg.RegisterProvider(&b);
  EXPECT_EQ(reg.Collect().values.at("test/fixed/ticks"), 6u);
  reg.UnregisterProvider(&a);
  reg.UnregisterProvider(&b);
  EXPECT_EQ(reg.NumProviders(), before);
}

// The workload's own contribution: metrics::Delta against the pre-workload
// snapshot, dropping keys that did not move (earlier tests' layer stacks
// hold intentional sp<> cycles, so their providers linger with frozen
// values that would otherwise differ between two runs).
std::map<std::string, uint64_t> MovedValues(
    const metrics::Registry::Snapshot& base,
    const metrics::Registry::Snapshot& end) {
  std::map<std::string, uint64_t> moved;
  for (const auto& [key, value] : metrics::Delta(base, end).values) {
    if (value != 0) {
      moved[key] = value;
    }
  }
  return moved;
}

std::map<std::string, metrics::Histogram::Snapshot> NonEmptyHistograms(
    const std::map<std::string, metrics::Histogram::Snapshot>& all) {
  std::map<std::string, metrics::Histogram::Snapshot> out;
  for (const auto& [key, snap] : all) {
    if (snap.count != 0) {
      out[key] = snap;
    }
  }
  return out;
}

struct RunResult {
  std::map<std::string, uint64_t> value_delta;
  std::map<std::string, metrics::Histogram::Snapshot> histograms;
};

// One complete instrumented workload on a fresh two-domain stack, driven
// entirely by a fresh FakeClock (transport, layers, and the registry clock
// all read it).
RunResult InstrumentedRun() {
  FakeClock clock;
  SpinTransport spin(/*cross_call_ns=*/500, &clock);
  Transport* previous_transport = Domain::SetDefaultTransport(&spin);
  metrics::Registry& reg = metrics::Registry::Global();
  reg.SetClock(&clock);

  RunResult result;
  {
    MemBlockDevice device(ufs::kBlockSize, 8192);
    SfsOptions options;
    options.placement = SfsPlacement::kTwoDomains;
    Sfs sfs = *CreateSfs(&device, options, &clock);
    Credentials sys = Credentials::System();
    sp<File> file = *sfs.root->CreateFile(*Name::Parse("det"), sys);

    reg.Reset();
    metrics::Registry::Snapshot base = reg.Collect();
    Buffer page(kPageSize);
    for (int i = 0; i < 50; ++i) {
      file->Write(0, page.span()).take_value();
      file->Read(0, page.mutable_span()).take_value();
      file->Stat().take_value();
    }
    metrics::Registry::Snapshot end = reg.Collect();
    result.value_delta = MovedValues(base, end);
    result.histograms = NonEmptyHistograms(end.histograms);
  }

  reg.SetClock(nullptr);
  Domain::SetDefaultTransport(previous_transport);
  return result;
}

TEST(MetricsTest, SnapshotsDeterministicUnderSpinTransportAndFakeClock) {
  RunResult first = InstrumentedRun();
  RunResult second = InstrumentedRun();
  // Not trivially empty: the workload crossed domains and timed layer ops.
  EXPECT_GT(first.value_delta.at("domain/cross_call.calls"), 0u);
  ASSERT_TRUE(first.histograms.count("layer/coherent/read.latency_ns"));
  EXPECT_EQ(first.histograms.at("layer/coherent/read.latency_ns").count, 50u);
  // Bit-identical across runs, buckets and all.
  EXPECT_EQ(first.value_delta, second.value_delta);
  EXPECT_EQ(first.histograms, second.histograms);
}

TEST(MetricsTest, RegistryThreadSafeUnderThreadTransport) {
  ThreadTransport transport;
  sp<Domain> domain = Domain::Create("tt-metrics", &transport);
  metrics::Registry& reg = metrics::Registry::Global();
  metrics::Counter& shared = reg.counter("test/tt.increments");
  shared.Reset();
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&domain, &reg] {
      // Each thread traces its own cross-domain ops (worker hand-off) and
      // hammers a shared counter/histogram through the registry.
      for (int i = 0; i < kOpsPerThread; ++i) {
        trace::TraceRoot root("tt-op");
        int got = domain->Run([&reg] {
          static metrics::OpMetric metric("test/tt.op");
          metrics::TimedOp timed(metric, "tt.body");
          reg.counter("test/tt.increments").Increment();
          return 1;
        });
        ASSERT_EQ(got, 1);
        ASSERT_TRUE(trace::Contains(root.Finish(), "xdc:tt-metrics"));
      }
    });
  }
  // Concurrent snapshots while the writers run.
  for (int i = 0; i < 50; ++i) {
    (void)reg.Collect();
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(shared.Value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_GE(reg.histogram("test/tt.op.latency_ns").snapshot().count,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

TEST(MetricsTest, DeltaSubtractsValuesAndHistogramBuckets) {
  metrics::Histogram h;
  h.Record(100);
  h.Record(1000);
  metrics::Registry::Snapshot before;
  before.values["a"] = 3;
  before.values["gone"] = 9;
  before.histograms["h"] = h.snapshot();

  h.Record(100);
  h.Record(1'000'000);
  metrics::Registry::Snapshot after;
  after.values["a"] = 5;
  after.values["fresh"] = 2;
  after.histograms["h"] = h.snapshot();

  metrics::Registry::Snapshot d = metrics::Delta(before, after);
  EXPECT_EQ(d.values.at("a"), 2u);
  // An instrument born inside the interval counts in full.
  EXPECT_EQ(d.values.at("fresh"), 2u);
  // One that vanished recorded nothing in the interval.
  EXPECT_EQ(d.values.count("gone"), 0u);
  const metrics::Histogram::Snapshot& hd = d.histograms.at("h");
  EXPECT_EQ(hd.count, 2u);
  EXPECT_EQ(hd.sum_ns, 1'000'100u);
  EXPECT_EQ(hd.buckets[metrics::Histogram::BucketIndex(100)], 1u);
  EXPECT_EQ(hd.buckets[metrics::Histogram::BucketIndex(1'000'000)], 1u);
  EXPECT_EQ(hd.buckets[metrics::Histogram::BucketIndex(1000)], 0u);
  // A counter reset mid-interval clamps at zero instead of underflowing.
  EXPECT_EQ(metrics::Delta(after, before).values.at("a"), 0u);
}

// --- distributed tracing across the DFS wire ---

struct WireWorld {
  FakeClock clock;
  net::Network network{&clock, 1000};
  sp<net::Node> server_node, client_node;
  MemBlockDevice device{ufs::kBlockSize, 8192};
  Sfs sfs;
  sp<dfs::DfsServer> server;
  sp<dfs::DfsClient> client;
  Credentials sys = Credentials::System();

  WireWorld() {
    server_node = network.AddNode("server");
    client_node = network.AddNode("client");
    sfs = *CreateSfs(&device, SfsOptions{}, &clock);
    server = *dfs::DfsServer::Create(server_node, &network, "dfs", sfs.root,
                                     &clock);
    client =
        *dfs::DfsClient::Mount(client_node, &network, "server", "dfs", &clock);
  }
};

// The acceptance path: a POSIX read against a DFS mount produces ONE trace
// tree — client span, network hop, and the server-domain handler all share
// the root's trace_id, stitched by remote_parent_span_id.
TEST(TraceTest, PosixReadOverDfsIsOneTraceTree) {
  WireWorld w;
  sp<File> file = *w.server->CreateFile(*Name::Parse("doc"), w.sys);
  Buffer data(std::string("one tree across the wire"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());

  posix::Process proc(w.client, w.sys);
  int fd = *proc.Open("doc", posix::kRdOnly);

  trace::TraceRoot root("posix_read", &w.clock);
  Buffer out(24);
  ASSERT_TRUE(proc.Read(fd, out.mutable_span()).ok());
  const trace::Span& tree = root.Finish();
  EXPECT_EQ(out.ToString(), "one tree across the wire");

  ASSERT_NE(tree.trace_id, 0u);
  const trace::Span* serve = trace::FindFirst(tree, "dfs.serve");
  ASSERT_NE(serve, nullptr) << trace::ToString(tree);
  ASSERT_TRUE(trace::Contains(tree, "net.call:")) << trace::ToString(tree);
  // The server-side handler is in the SAME tree with the SAME trace_id...
  EXPECT_EQ(serve->trace_id, tree.trace_id);
  EXPECT_NE(serve->span_id, 0u);
  // ...and its wire-carried parent is the network hop it arrived on.
  const trace::Span* hop = serve->parent;
  while (hop != nullptr && hop->name.rfind("net.", 0) != 0) {
    hop = hop->parent;
  }
  ASSERT_NE(hop, nullptr) << trace::ToString(tree);
  EXPECT_EQ(serve->remote_parent_span_id, hop->span_id)
      << trace::ToString(tree);
}

// Retransmissions appear as "net.retry:" spans, so the "net.call:" count of
// one logical operation is identical with and without injected faults.
TEST(TraceTest, RetriesAreRetrySpansNotExtraNetCalls) {
  WireWorld w;
  sp<File> file = *w.server->CreateFile(*Name::Parse("f"), w.sys);
  Buffer data(std::string("stable"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  sp<File> remote = *ResolveAs<File>(w.client, "f", w.sys);
  Buffer out(6);
  ASSERT_TRUE(remote->Read(0, out.mutable_span()).ok());  // warm everything

  size_t clean_calls = 0;
  {
    trace::TraceRoot root("clean_read", &w.clock);
    ASSERT_TRUE(remote->Read(0, out.mutable_span()).ok());
    const trace::Span& tree = root.Finish();
    clean_calls = trace::FindAll(tree, "net.call:").size();
    EXPECT_TRUE(trace::FindAll(tree, "net.retry:").empty())
        << trace::ToString(tree);
  }
  ASSERT_GT(clean_calls, 0u);

  w.network.DropNextResponses("client", "server", 1);
  {
    trace::TraceRoot root("faulted_read", &w.clock);
    ASSERT_TRUE(remote->Read(0, out.mutable_span()).ok());
    const trace::Span& tree = root.Finish();
    EXPECT_EQ(trace::FindAll(tree, "net.call:").size(), clean_calls)
        << trace::ToString(tree);
    EXPECT_GE(trace::FindAll(tree, "net.retry:").size(), 1u)
        << trace::ToString(tree);
  }
}

// --- flight recorder ---

std::vector<flight::Event> EventsInLayer(const char* layer) {
  std::vector<flight::Event> mine;
  for (const flight::Event& e : flight::Snapshot()) {
    if (std::string(e.layer) == layer) {
      mine.push_back(e);
    }
  }
  return mine;
}

TEST(FlightRecorderTest, RingWrapsKeepingTheNewestEvents) {
  flight::Clear();
  const uint64_t total = flight::kRingCapacity + 50;
  for (uint64_t i = 0; i < total; ++i) {
    flight::Record(flight::Severity::kInfo, "fr-test", "wrap", i);
  }
  std::vector<flight::Event> mine = EventsInLayer("fr-test");
  ASSERT_EQ(mine.size(), flight::kRingCapacity);
  EXPECT_GE(flight::TotalDropped(), 50u);
  // Oldest retained is exactly `total - capacity`; the newest is the last
  // record; seq is strictly increasing (Snapshot is oldest-first).
  EXPECT_EQ(mine.front().arg0, total - flight::kRingCapacity);
  EXPECT_EQ(mine.back().arg0, total - 1);
  for (size_t i = 1; i < mine.size(); ++i) {
    EXPECT_LT(mine[i - 1].seq, mine[i].seq);
  }
  flight::Clear();
  EXPECT_TRUE(flight::Snapshot().empty());
  EXPECT_EQ(flight::TotalDropped(), 0u);
}

TEST(FlightRecorderTest, EventsStampTheActiveTraceContext) {
  flight::Clear();
  {
    trace::TraceRoot root("flight-ctx");
    flight::Record(flight::Severity::kWarn, "fr-ctx", "inside");
  }
  flight::Record(flight::Severity::kInfo, "fr-ctx", "outside");
  std::vector<flight::Event> mine = EventsInLayer("fr-ctx");
  ASSERT_EQ(mine.size(), 2u);
  EXPECT_NE(mine[0].trace_id, 0u);
  EXPECT_NE(mine[0].span_id, 0u);
  EXPECT_EQ(mine[1].trace_id, 0u);
  // The dump names layer, severity, and message.
  std::string dump = flight::Dump();
  EXPECT_NE(dump.find("fr-ctx"), std::string::npos);
  EXPECT_NE(dump.find("inside"), std::string::npos);
  EXPECT_NE(dump.find(flight::SeverityName(flight::Severity::kWarn)),
            std::string::npos);
  flight::Clear();
}

// --- the human-readable report ---

TEST(StatReportTest, GroupsOpsAndCountersByComponent) {
  metrics::Histogram h;
  h.Record(2000);
  h.Record(4000);
  std::string line = obs::FormatOpLine("page_in", 2, h.snapshot());
  EXPECT_NE(line.find("page_in"), std::string::npos);
  EXPECT_NE(line.find("calls=2"), std::string::npos);

  metrics::Registry::Snapshot snap;
  snap.values["layer/coherent/read.calls"] = 5;
  snap.histograms["layer/coherent/read.latency_ns"] = h.snapshot();
  snap.values["vmm/client/faults"] = 3;
  std::string report = obs::PerLayerReport(snap);
  EXPECT_NE(report.find("layer/coherent"), std::string::npos);
  EXPECT_NE(report.find("vmm/client"), std::string::npos);
  EXPECT_NE(report.find("faults = 3"), std::string::npos);
}

}  // namespace
}  // namespace springfs
