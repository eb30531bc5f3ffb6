// Unit tests of the benchmark's own metric and check code.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "layer_metrics.h"
#include "spans.h"

namespace perfbench {
namespace {

TEST(Percentiles, FromExactSamplesInMicroseconds) {
  Samples s;
  EXPECT_EQ(s.PercentileUs(50), 0.0);  // no samples
  EXPECT_EQ(s.MeanUs(), 0.0);
  for (uint64_t ns = 100'000; ns >= 1000; ns -= 1000) s.Add(ns);  // unsorted
  // 100 samples 1..100 us: rank p/100 * 99, interpolated between
  // neighbours.
  EXPECT_DOUBLE_EQ(s.PercentileUs(0), 1.0);
  EXPECT_DOUBLE_EQ(s.PercentileUs(50), 50.5);
  EXPECT_DOUBLE_EQ(s.PercentileUs(99), 99.01);
  EXPECT_DOUBLE_EQ(s.PercentileUs(100), 100.0);
  EXPECT_DOUBLE_EQ(s.MeanUs(), 50.5);
}

TEST(Percentiles, HistogramTailIsTooCoarseToTrack) {
  // Why the latencies keep exact samples: two tails 0.3 ns apart read the
  // same through a Histogram, and apart through Samples.
  sherman::Histogram h1, h2;
  Samples s1, s2;
  for (int i = 0; i < 99; i++) {
    h1.Add(2558);
    h2.Add(2558);
    s1.Add(2558);
    s2.Add(2558);
  }
  h1.Add(3044);
  s1.Add(3044);
  h2.Add(3074);
  s2.Add(3074);
  EXPECT_EQ(h1.P99(), h2.P99());
  EXPECT_LT(s1.PercentileUs(99.5), s2.PercentileUs(99.5));
}

TEST(Ratios, ZeroDenominatorIsZero) {
  EXPECT_EQ(Ratio(5, 0), 0.0);
  EXPECT_EQ(Ratio(0, 0), 0.0);
  EXPECT_EQ(Ratio(6, 3), 2.0);
}

TEST(Ratios, PerLayerTableOfAFixedWorkloadHasZeroVlogMetrics) {
  LayerInputs in;
  in.window.ops = {100, 100, 0, 0};  // gets, puts; no scans or deletes
  in.counters.AddCounter("rdma.reads", 150);
  in.counters.AddCounter("lock.cas_attempts", 40);
  in.counters.AddCounter("lock.cas_failures", 10);
  // No vlog.* counters at all: a fixed-layout tree registers none.
  const auto t = PerLayerTable(in);
  for (const auto& [name, unit] : PerLayerNames()) {
    ASSERT_TRUE(t.count(name)) << name;
    EXPECT_TRUE(std::isfinite(t.at(name))) << name;
  }
  EXPECT_EQ(t.at("vlog.appends_per_put"), 0.0);
  EXPECT_EQ(t.at("vlog.reads_per_get"), 0.0);
  EXPECT_EQ(t.at("core.scan_p99_us"), 0.0);
  EXPECT_EQ(t.at("rdma.reads_per_get"), 1.5);
  EXPECT_EQ(t.at("lock.cas_per_write"), 0.4);
  EXPECT_EQ(t.at("lock.cas_success_ratio"), 0.75);
  EXPECT_EQ(t.at("workload.get_share"), 0.5);
}

TEST(Ratios, EmptyPassIsAllFiniteZeros) {
  const auto t = PerLayerTable(LayerInputs());
  EXPECT_EQ(t.size(), PerLayerNames().size());
  for (const auto& [name, v] : t) EXPECT_EQ(v, 0.0) << name;
}

TEST(HostCost, NormalisedPerSimulatedOp) {
  EXPECT_DOUBLE_EQ(HostUsPerOp(5'000'000, 1000), 5.0);
  EXPECT_EQ(HostUsPerOp(5'000'000, 0), 0.0);
  // Twice the simulated ops for the same host time is half the cost per op:
  // a faster simulated system does not read as a host regression.
  EXPECT_DOUBLE_EQ(HostUsPerOp(5'000'000, 2000),
                   HostUsPerOp(5'000'000, 1000) / 2);
}

TEST(HostCost, MedianOfSetups) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Checks, GetValueMustBeLoadedOrSent) {
  Oracle o;
  const uint64_t key = 10, load_value = 317;
  EXPECT_TRUE(o.ValidValue(key, /*loaded=*/true, load_value, load_value));
  EXPECT_FALSE(o.ValidValue(key, true, load_value, 999));  // never written
  o.RecordPut(key, 999, true);
  EXPECT_TRUE(o.ValidValue(key, true, load_value, 999));
  // A value sent to another key is still wrong for this one.
  o.RecordPut(12, 555, true);
  EXPECT_FALSE(o.ValidValue(key, true, load_value, 555));
  // A key that was never loaded has no bulk value.
  EXPECT_FALSE(o.ValidValue(11, /*loaded=*/false, load_value, load_value));
}

TEST(Checks, NotFoundOnlyForAbsentKeys) {
  Oracle o;
  EXPECT_TRUE(o.MustExist(10, /*loaded=*/true));
  EXPECT_FALSE(o.MustExist(11, /*loaded=*/false));
  EXPECT_TRUE(o.RecordPut(11, 1, false));   // fresh insert
  EXPECT_FALSE(o.RecordPut(11, 2, false));  // second put is an update
  EXPECT_FALSE(o.RecordPut(10, 3, true));   // loaded keys are never fresh
  EXPECT_FALSE(o.MustExist(11, false));    // in flight: may be absent
  o.RecordPutDone(11);
  EXPECT_TRUE(o.MustExist(11, false));
  o.RecordDelete(10);
  EXPECT_FALSE(o.MustExist(10, true));
}

TEST(Checks, ScanRejectsOrderBoundAndValueViolations) {
  Oracle o;
  o.RecordPut(5, 50, false);
  auto valid = [&o](uint64_t k, uint64_t v) {
    return o.ValidValue(k, k % 2 == 0, k * 31 + 7, v);
  };
  using Out = std::vector<std::pair<uint64_t, uint64_t>>;
  EXPECT_EQ(CheckScan<uint64_t>(4, 3, Out{{4, 131}, {5, 50}, {6, 193}}, valid),
            0u);
  // Out of order.
  EXPECT_GT(CheckScan<uint64_t>(4, 3, Out{{5, 50}, {4, 131}}, valid), 0u);
  // Duplicate key.
  EXPECT_GT(CheckScan<uint64_t>(4, 3, Out{{4, 131}, {4, 131}}, valid), 0u);
  // Key below `from`.
  EXPECT_GT(CheckScan<uint64_t>(5, 3, Out{{4, 131}, {5, 50}}, valid), 0u);
  // More than `count` pairs.
  EXPECT_GT(CheckScan<uint64_t>(4, 1, Out{{4, 131}, {5, 50}}, valid), 0u);
  // A wrong value.
  EXPECT_GT(CheckScan<uint64_t>(4, 3, Out{{4, 131}, {5, 51}}, valid), 0u);
}

TEST(Checks, VarlenScanUsesByteOrderAndValueIds) {
  Oracle o;
  o.RecordPut(BytesId("b-key"), BytesId("new value"), false);
  auto valid = [&o](const std::string& k, const std::string& v) {
    return o.ValidValue(BytesId(k), false, 0, BytesId(v));
  };
  using Out = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(CheckScan<std::string>("a", 2, Out{{"b-key", "new value"}}, valid),
            0u);
  EXPECT_GT(CheckScan<std::string>("a", 2, Out{{"b-key", "old value"}}, valid),
            0u);
  EXPECT_GT(CheckScan<std::string>("c", 2, Out{{"b-key", "new value"}}, valid),
            0u);
}

TEST(Spans, OpSpansAggregateInsideTheWindowOnly) {
  std::vector<Span> spans;
  auto op = [&spans](OpKind k, int64_t start, int64_t end) {
    Span s;
    s.clock = SpanClock::kSim;
    s.start_ns = start;
    s.end_ns = end;
    s.arg = static_cast<uint64_t>(k);
    spans.push_back(s);
  };
  op(OpKind::kGet, 0, 900);       // ends before the window
  op(OpKind::kGet, 900, 1500);    // inside
  op(OpKind::kPut, 1000, 4000);   // inside
  op(OpKind::kScan, 1500, 2000);
  WindowStats w;
  AddOpSpans(spans, 1000, 2000, &w);
  EXPECT_EQ(w.count(OpKind::kGet), 1u);   // 900..1500
  EXPECT_EQ(w.count(OpKind::kPut), 0u);   // ends after the window
  EXPECT_EQ(w.count(OpKind::kScan), 0u);  // ends exactly at the window end
  w = WindowStats();
  AddOpSpans(spans, 1000, 5000, &w);
  EXPECT_EQ(w.count(OpKind::kGet), 1u);
  EXPECT_EQ(w.count(OpKind::kPut), 1u);
  EXPECT_EQ(w.count(OpKind::kScan), 1u);
  EXPECT_DOUBLE_EQ(w.latency(OpKind::kPut).PercentileUs(100), 3.0);
}

TEST(Spans, HostTotalsSumByName) {
  SpanLog log(/*enabled=*/true);
  {
    HostSpan a(&log, "workload.next");
    a.set_arg(64);
  }
  {
    HostSpan b(&log, "workload.next");
    b.set_arg(64);
    EXPECT_GE(b.End(), 0);
    EXPECT_GE(b.End(), 0);  // idempotent: recorded once
  }
  const auto t = HostTotals(log.spans());
  ASSERT_TRUE(t.count("workload.next"));
  EXPECT_EQ(t.at("workload.next").count, 2u);
  EXPECT_EQ(t.at("workload.next").arg, 128u);

  SpanLog off(/*enabled=*/false);
  HostSpan c(&off, "setup.system");
  c.End();
  EXPECT_TRUE(off.spans().empty());  // measured, not recorded
}

}  // namespace
}  // namespace perfbench
