// Observability layer unit tests (ISSUE 6): RunningStats edge cases, the
// canonical JSON writer's escaping, histogram bucket boundaries, registry
// snapshot canonicalization, and the end-to-end determinism contract — two
// identical OBS_METRICS runs produce byte-identical traces, `metrics`
// lines included.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/wireless.h"
#include "common/json.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "runtime/trace_replay.h"

namespace cologne {
namespace {

// ---- RunningStats ----------------------------------------------------------

TEST(RunningStatsTest, EmptyIsAllZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stdev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStatsTest, SingleObservation) {
  RunningStats s;
  s.Add(-7.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), -7.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -7.5);
  EXPECT_DOUBLE_EQ(s.max(), -7.5);
  EXPECT_DOUBLE_EQ(s.sum(), -7.5);
}

TEST(RunningStatsTest, MergeMatchesSequentialAdd) {
  const std::vector<double> xs = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  RunningStats all;
  for (double x : xs) all.Add(x);

  for (size_t split = 0; split <= xs.size(); ++split) {
    RunningStats a, b;
    for (size_t i = 0; i < split; ++i) a.Add(xs[i]);
    for (size_t i = split; i < xs.size(); ++i) b.Add(xs[i]);
    a.Merge(b);  // split=0 and split=n exercise the empty-side fast paths
    EXPECT_EQ(a.count(), all.count()) << "split " << split;
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12) << "split " << split;
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9) << "split " << split;
    EXPECT_DOUBLE_EQ(a.min(), all.min()) << "split " << split;
    EXPECT_DOUBLE_EQ(a.max(), all.max()) << "split " << split;
    EXPECT_NEAR(a.sum(), all.sum(), 1e-12) << "split " << split;
  }
}

TEST(RunningStatsTest, MergeTwoEmptiesStaysEmpty) {
  RunningStats a, b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
}

// ---- JsonWriter escaping ---------------------------------------------------

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControls) {
  JsonWriter w;
  w.BeginObject();
  // Note the literal split: "\x01" "f" keeps the hex escape to one byte
  // (otherwise \x01f parses as 0x1f).
  w.Key("s").String("a\"b\\c\nd\te\x01" "f");
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
}

TEST(JsonWriterTest, CanonicalContainersAndNumbers) {
  JsonWriter w;
  w.BeginObject();
  w.Key("i").Int(-3);
  w.Key("u").UInt(18446744073709551615ull);
  w.Key("d").Double(0.1);
  w.Key("b").Bool(true);
  w.Key("a").BeginArray();
  w.Int(1).Int(2);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"i\":-3,\"u\":18446744073709551615,\"d\":0.1,\"b\":true,"
            "\"a\":[1,2]}");
}

// ---- Histogram buckets -----------------------------------------------------

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  obs::MetricsRegistry reg;
  reg.DeclareHistogram("h", {0, 10, 100});
  // One sample per interesting position: below the first bound, exactly on
  // each bound, just past each bound, and past the last bound (overflow).
  for (int64_t sample : {-5, 0, 1, 10, 11, 100, 101, 100000}) {
    reg.Observe("h", sample);
  }
  const obs::Histogram* h = reg.histogram("h");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h->counts[0], 2u);      // -5, 0
  EXPECT_EQ(h->counts[1], 2u);      // 1, 10
  EXPECT_EQ(h->counts[2], 2u);      // 11, 100
  EXPECT_EQ(h->counts[3], 2u);      // 101, 100000
  EXPECT_EQ(h->count, 8u);
  EXPECT_EQ(h->sum, -5 + 0 + 1 + 10 + 11 + 100 + 101 + 100000);
}

TEST(HistogramTest, UndeclaredObserveIsIgnored) {
  obs::MetricsRegistry reg;
  reg.Observe("nope", 7);
  EXPECT_EQ(reg.SnapshotJson(), "{}");
}

// ---- Registry snapshots ----------------------------------------------------

TEST(MetricsRegistryTest, SnapshotIsSortedAndSectionsOmittedWhenEmpty) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.SnapshotJson(), "{}");
  reg.Add("zeta", 2);
  reg.Add("alpha");
  reg.Add("zeta");
  EXPECT_EQ(reg.SnapshotJson(), "{\"counters\":{\"alpha\":1,\"zeta\":3}}");
  reg.SetGauge("depth", -4);
  EXPECT_EQ(reg.SnapshotJson(),
            "{\"counters\":{\"alpha\":1,\"zeta\":3},"
            "\"gauges\":{\"depth\":-4}}");
  reg.Set("zeta", 10);  // absolute overwrite
  EXPECT_EQ(reg.counter("zeta"), 10u);
  EXPECT_EQ(reg.counter("missing"), 0u);
}

TEST(MetricsRegistryTest, HistogramSnapshotShape) {
  obs::MetricsRegistry reg;
  reg.DeclareHistogram("lat", {1, 2});
  reg.Observe("lat", 1);
  reg.Observe("lat", 5);
  EXPECT_EQ(reg.SnapshotJson(),
            "{\"hist\":{\"lat\":{\"le\":[1,2],\"n\":[1,0,1],\"count\":2,"
            "\"sum\":6}}}");
}

// ---- End-to-end determinism ------------------------------------------------

// Two identical distributed runs with OBS_METRICS on must produce
// byte-identical traces — metrics snapshots and solve provenance included.
// This is the same contract the golden test pins, but across two in-process
// runs rather than against a checked-in file.
TEST(ObsDeterminismTest, TwoRunsByteIdenticalWithMetricsOn) {
  auto run = [](runtime::TraceRecorder* trace) {
    apps::WirelessConfig cfg;
    cfg.grid_w = 2;
    cfg.grid_h = 2;
    cfg.num_flows = 2;
    cfg.seed = 43;
    cfg.knobs["SOLVER_BACKEND"] = Value::Str("lns");
    cfg.solver_max_iterations = 8;
    cfg.link_solve_ms = 0;
    cfg.knobs["OBS_METRICS"] = Value::Int(1);
    cfg.trace = trace;
    apps::WirelessScenario scenario(cfg);
    auto r = scenario.AssignChannels(apps::WirelessProtocol::kDistributed);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  };
  runtime::TraceRecorder a, b;
  run(&a);
  run(&b);
  ASSERT_FALSE(a.lines().empty());
  EXPECT_EQ(runtime::DiffTraces(a.lines(), b.lines()), "");
  size_t metrics_lines = 0;
  for (const std::string& line : a.lines()) {
    if (line.find("\"ev\":\"metrics\"") != std::string::npos) ++metrics_lines;
  }
  EXPECT_GT(metrics_lines, 0u) << "metrics snapshots missing from the trace";
}

}  // namespace
}  // namespace cologne
