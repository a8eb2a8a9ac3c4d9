// Observability subsystem: metrics registry determinism and trace export.
//
// The registry is process-global, so every test uses its own metric names
// ("test_obs.*") and the trace tests reset the rings they touch.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "src/common/json.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace moheco::obs {
namespace {

/// Parses `text`, failing the test (and returning null) on a parse error.
JsonValue must_parse(const std::string& text) {
  const std::optional<JsonValue> parsed = parse_json(text);
  EXPECT_TRUE(parsed.has_value()) << "unparseable JSON: " << text;
  return parsed.value_or(JsonValue());
}

/// Finds a histogram snapshot by name; nullptr when absent.
const HistogramSnapshot* find_histogram(const Snapshot& snap,
                                        const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

TEST(ObsCounter, ShardedTotalMatchesSingleThread) {
  Counter& sharded = registry().counter("test_obs.counter_sharded");
  Counter& single = registry().counter("test_obs.counter_single");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sharded] {
      for (int i = 0; i < kAddsPerThread; ++i) sharded.add();
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads * kAddsPerThread; ++i) single.add();
  // The sharded sum over 8 concurrent writers equals the same number of
  // single-threaded increments: no update is lost to sharding.
  EXPECT_EQ(sharded.value(), single.value());
  EXPECT_EQ(sharded.value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(ObsHistogram, SnapshotIdenticalAcrossThreadCounts) {
  // Record the same multiset of values from 1 thread and from 4 threads;
  // the merged snapshots must be identical (shard placement is invisible).
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 0; v < 4000; ++v) values.push_back(v * v % 100003);

  Histogram& one = registry().histogram("test_obs.hist_1thread");
  for (std::uint64_t v : values) one.record(v);

  Histogram& four = registry().histogram("test_obs.hist_4threads");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&four, &values, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < values.size();
           i += 4) {
        four.record(values[i]);
      }
    });
  }
  for (auto& t : threads) t.join();

  const Snapshot snap = registry().snapshot();
  const HistogramSnapshot* h1 = find_histogram(snap, "test_obs.hist_1thread");
  const HistogramSnapshot* h4 = find_histogram(snap, "test_obs.hist_4threads");
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h4, nullptr);
  EXPECT_EQ(h1->count, values.size());
  EXPECT_EQ(h4->count, values.size());
  EXPECT_EQ(h1->sum, h4->sum);
  for (int b = 0; b < kHistogramBuckets; ++b) {
    EXPECT_EQ(h1->buckets[b], h4->buckets[b]) << "bucket " << b;
  }
  EXPECT_EQ(h1->to_json(), h4->to_json());
}

TEST(ObsHistogram, MergeIsAssociativeAndCommutative) {
  auto make = [](std::uint64_t seed) {
    HistogramSnapshot s;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      s.buckets[b] = (seed * 31 + static_cast<std::uint64_t>(b)) % 17;
      s.count += s.buckets[b];
      s.sum += s.buckets[b] * static_cast<std::uint64_t>(b + 1);
    }
    return s;
  };
  const HistogramSnapshot a = make(1), b = make(2), c = make(3);

  HistogramSnapshot ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  HistogramSnapshot bc = b;
  bc.merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.merge(bc);
  HistogramSnapshot cba = c;
  cba.merge(b);
  cba.merge(a);

  EXPECT_EQ(ab_c.to_json(), a_bc.to_json());
  EXPECT_EQ(ab_c.to_json(), cba.to_json());
  EXPECT_EQ(ab_c.count, a.count + b.count + c.count);
  EXPECT_EQ(ab_c.sum, a.sum + b.sum + c.sum);
}

TEST(ObsHistogram, BucketEdges) {
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            kHistogramBuckets - 1);
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper_bound(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper_bound(kHistogramBuckets - 1),
            ~std::uint64_t{0});
  // Every value lands in the bucket whose bound brackets it.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 1023ull, 1024ull, 1ull << 40}) {
    const int idx = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_upper_bound(idx));
    if (idx > 0) {
      EXPECT_GT(v, Histogram::bucket_upper_bound(idx - 1));
    }
  }
}

TEST(ObsSnapshot, JsonShapeAndDeterminism) {
  registry().counter("test_obs.json_counter").add(42);
  registry().gauge("test_obs.json_gauge").set(-7);
  registry().histogram("test_obs.json_hist").record(100);

  const std::string json = registry().snapshot().to_json();
  const JsonValue parsed = must_parse(json);
  ASSERT_TRUE(parsed.is_object());
  ASSERT_TRUE(parsed["counters"].is_object());
  ASSERT_TRUE(parsed["gauges"].is_object());
  ASSERT_TRUE(parsed["histograms"].is_object());
  EXPECT_EQ(parsed["counters"]["test_obs.json_counter"].as_int(), 42);
  EXPECT_EQ(parsed["gauges"]["test_obs.json_gauge"].as_int(), -7);
  EXPECT_EQ(parsed["histograms"]["test_obs.json_hist"]["count"].as_int(), 1);
  EXPECT_EQ(parsed["histograms"]["test_obs.json_hist"]["sum"].as_int(), 100);

  // Keys are name-sorted, so two snapshots with no traffic in between
  // serialize identically.
  EXPECT_EQ(json, registry().snapshot().to_json());
}

TEST(ObsMetrics, WriteMetricsJsonAtomicDump) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "moheco_test_obs_metrics.json";
  registry().counter("test_obs.dump_counter").add(3);
  ASSERT_TRUE(write_metrics_json(path.string()));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue parsed = must_parse(buffer.str());
  EXPECT_GE(parsed["counters"]["test_obs.dump_counter"].as_int(), 3);
  fs::remove(path);
}

TEST(ObsTimer, GatedBehindTimingEnabled) {
  Histogram& hist = registry().histogram("test_obs.timer_hist");
  set_timing_enabled(false);
  { ScopedTimer t(hist); }
  Snapshot snap = registry().snapshot();
  EXPECT_EQ(find_histogram(snap, "test_obs.timer_hist")->count, 0u);

  set_timing_enabled(true);
  { ScopedTimer t(hist); }
  set_timing_enabled(false);
  snap = registry().snapshot();
  EXPECT_EQ(find_histogram(snap, "test_obs.timer_hist")->count, 1u);
}

TEST(ObsTrace, DisarmedSpansRecordNothing) {
  set_trace_enabled(false);
  trace_reset();
  { Span s("test_obs.disarmed"); }
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST(ObsTrace, ChromeTraceJsonRoundTrip) {
  set_trace_enabled(true);
  trace_reset();
  {
    Span outer("test_obs.outer", 17);
    Span inner("test_obs.inner");
  }
  set_trace_enabled(false);
  EXPECT_EQ(trace_event_count(), 2u);

  const JsonValue parsed = must_parse(trace_json());
  ASSERT_TRUE(parsed.is_object());
  ASSERT_TRUE(parsed["traceEvents"].is_array());
  ASSERT_EQ(parsed["traceEvents"].size(), 2u);
  bool saw_outer = false, saw_inner = false;
  for (const JsonValue& ev : parsed["traceEvents"].items()) {
    // Every event is a complete ("X") event with the Chrome-required keys.
    EXPECT_EQ(ev["ph"].as_string(), "X");
    EXPECT_TRUE(ev["ts"].is_number());
    EXPECT_TRUE(ev["dur"].is_number());
    EXPECT_TRUE(ev["pid"].is_number());
    EXPECT_TRUE(ev["tid"].is_number());
    if (ev["name"].as_string() == "test_obs.outer") {
      saw_outer = true;
      EXPECT_EQ(ev["args"]["n"].as_int(), 17);
    }
    if (ev["name"].as_string() == "test_obs.inner") {
      saw_inner = true;
      EXPECT_FALSE(ev.has("args"));
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);

  trace_reset();
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST(ObsTrace, WriteTraceProducesLoadableFile) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "moheco_test_obs.trace";
  set_trace_enabled(true);
  trace_reset();
  { Span s("test_obs.file_span"); }
  set_trace_enabled(false);
  ASSERT_TRUE(write_trace(path.string()));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue parsed = must_parse(buffer.str());
  ASSERT_TRUE(parsed["traceEvents"].is_array());
  EXPECT_EQ(parsed["traceEvents"].size(), 1u);
  EXPECT_EQ(parsed["displayTimeUnit"].as_string(), "ms");
  trace_reset();
  fs::remove(path);
}

TEST(ObsBuildInfo, VersionAndBuildJson) {
  EXPECT_STRNE(version(), "");
  const JsonValue parsed = must_parse(build_json());
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed["version"].as_string(), version());
  EXPECT_NE(parsed["compiler"].as_string(), "");
}

}  // namespace
}  // namespace moheco::obs
