// Tests for the benchmark itself: span bookkeeping, decorator transparency,
// and the printed metric set.
//
//   cmake --build .bench_build/e2ebench --target e2ebench_tests -j4
//   .bench_build/e2ebench/e2ebench_tests
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "span_recorder.hpp"
#include "src/circuits/circuit_yield.hpp"
#include "src/common/json.hpp"
#include "src/common/parallel.hpp"
#include "src/core/moheco.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "traced_problem.hpp"

namespace e2ebench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, std::uint64_t start,
                std::uint64_t end, std::uint32_t thread = 0) {
  SpanRecord s;
  s.name = "t";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.thread = thread;
  return s;
}

TEST(SelfTime, SubtractsUnionOfChildrenClippedToParent) {
  const std::vector<SpanRecord> spans = {
      span(1, 0, 0, 100),
      span(2, 1, 10, 30, 1),   // overlaps span 3 (another thread)
      span(3, 1, 20, 40, 2),
      span(4, 1, 60, 70, 1),
      span(5, 1, 95, 120, 2),  // runs past the parent: clipped to 95..100
      span(6, 2, 12, 18, 1),   // grandchild: already inside span 2
  };
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  // Children cover 10..40, 60..70 and 95..100: 45 of 100 ns.
  EXPECT_EQ(self[0], 55u);
  EXPECT_EQ(self[1], 14u);  // 20 - 6
  EXPECT_EQ(self[2], 20u);
  EXPECT_EQ(self[4], 25u);
  EXPECT_EQ(self[5], 6u);
}

TEST(SelfTime, ChildlessSpanIsAllSelf) {
  const std::vector<std::uint64_t> self =
      self_times_ns({span(7, 0, 5, 9), span(8, 99, 1, 3)});
  EXPECT_EQ(self[0], 4u);
  EXPECT_EQ(self[1], 2u);  // parent not recorded: still its own time
}

TEST(SpanRecorder, KeepsEverySpanPastTheProgramRingCapacity) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;  // > the program tracer's 16,384 ring
  SpanRecorder recorder(3);
  std::uint64_t root_id = 0;
  {
    SpanRecorder::Span root(recorder, "root");
    root_id = root.id();
    SpanRecorder::AmbientScope ambient(recorder, root);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&recorder] {
        for (int i = 0; i < kPerThread; ++i) {
          SpanRecorder::Span outer(recorder, "outer", i);
          SpanRecorder::Span inner(recorder, "inner");
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const std::vector<SpanRecord> spans = recorder.spans();
  const std::size_t expected = 1 + 2 * kThreads * kPerThread;
  EXPECT_EQ(recorder.begun(), expected);
  EXPECT_EQ(recorder.recorded(), expected);
  ASSERT_EQ(spans.size(), expected);

  std::set<std::uint64_t> ids;
  std::set<std::uint64_t> outer_ids;
  for (const SpanRecord& s : spans) {
    ids.insert(s.id);
    EXPECT_EQ(s.run, 3u);
    EXPECT_LE(s.start_ns, s.end_ns);
    if (std::string_view(s.name) == "outer") {
      EXPECT_EQ(s.parent, root_id);  // worker spans hang off the ambient
      outer_ids.insert(s.id);
    }
  }
  EXPECT_EQ(ids.size(), expected);
  for (const SpanRecord& s : spans) {
    if (std::string_view(s.name) == "inner") {
      EXPECT_TRUE(outer_ids.count(s.parent)) << "inner span lost its parent";
    }
  }

  std::ostringstream json;
  write_trace_events(json, spans);
  const auto parsed = moheco::parse_json(json.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ((*parsed)["traceEvents"].size(), expected);
}

// --- Decorator transparency -------------------------------------------------

struct Counts {
  long long opens = 0, warm = 0, lanes = 0;
};

Counts count_spans(const SpanRecorder& recorder) {
  Counts c;
  for (const SpanRecord& s : recorder.spans()) {
    const std::string_view name(s.name);
    if (name == "circuits.open") ++c.opens;
    if (name == "circuits.open_warm") ++c.warm;
    if (name == "circuits.eval") c.lanes += s.n;
  }
  return c;
}

moheco::core::MohecoResult optimize(const moheco::mc::YieldProblem& problem,
                                    moheco::mc::EvalScheduler& scheduler) {
  moheco::core::MohecoOptions options;
  options.population = 8;
  options.max_generations = 3;
  options.seed = 5;
  moheco::core::MohecoOptimizer optimizer(problem, options, scheduler);
  moheco::core::MohecoResult r = optimizer.run();
  scheduler.forget_problem(&problem);
  return r;
}

class Transparency : public ::testing::TestWithParam<int> {};

TEST_P(Transparency, TracedRunsReturnTheSameOutcome) {
  const int threads = GetParam();
  moheco::circuits::CircuitYieldProblem bare(
      moheco::circuits::make_five_transistor_ota());
  SpanRecorder recorder(1);
  TracedProblem traced(bare, recorder);
  moheco::ThreadPool pool(threads);
  moheco::mc::EvalScheduler scheduler(pool);

  const std::vector<double> x = {60e-6, 40e-6, 20e-6, 0.7e-6, 0.85};
  const double y_bare =
      moheco::mc::reference_yield(bare, x, 300, 11, scheduler,
                                  moheco::stats::SamplingMethod::kLHS);
  const double y_traced =
      moheco::mc::reference_yield(traced, x, 300, 11, scheduler,
                                  moheco::stats::SamplingMethod::kLHS);
  EXPECT_EQ(y_bare, y_traced);

  const moheco::core::MohecoResult a = optimize(bare, scheduler);
  const long long lanes_before = count_spans(recorder).lanes;
  const moheco::core::MohecoResult b = optimize(traced, scheduler);
  EXPECT_EQ(a.best.x, b.best.x);
  EXPECT_EQ(a.best.fitness.yield, b.best.fitness.yield);
  EXPECT_EQ(a.best.fitness.feasible, b.best.fitness.feasible);
  EXPECT_EQ(a.total_simulations, b.total_simulations);
  EXPECT_EQ(a.generations, b.generations);
  EXPECT_EQ(count_spans(recorder).lanes - lanes_before, b.total_simulations);
  EXPECT_EQ(traced.failed_calls(), 0);
}

TEST_P(Transparency, WarmBlobRevivalsGoThroughOpenWarm) {
  const int threads = GetParam();
  moheco::circuits::CircuitYieldProblem bare(
      moheco::circuits::make_five_transistor_ota());
  SpanRecorder recorder(2);
  TracedProblem traced(bare, recorder);
  moheco::ThreadPool pool(threads);
  moheco::mc::SchedulerOptions options;
  options.sessions_per_worker = 1;  // every switch evicts and parks a blob
  moheco::mc::EvalScheduler scheduler(pool, options);

  const std::vector<double> xa = {60e-6, 40e-6, 20e-6, 0.7e-6, 0.85};
  const std::vector<double> xb = {50e-6, 30e-6, 20e-6, 0.8e-6, 0.85};
  std::vector<double> yields;
  for (int round = 0; round < 3; ++round) {
    for (const auto* x : {&xa, &xb}) {
      yields.push_back(moheco::mc::reference_yield(
          traced, *x, 64, 7, scheduler, moheco::stats::SamplingMethod::kLHS));
    }
  }
  const Counts c = count_spans(recorder);
  EXPECT_GT(scheduler.warm_opens(), 0);
  EXPECT_EQ(c.warm, scheduler.warm_opens());
  EXPECT_EQ(c.opens + c.warm, scheduler.session_opens());
  EXPECT_EQ(c.lanes, 6 * 64);
  for (int i = 2; i < 6; ++i) EXPECT_EQ(yields[i], yields[i - 2]);
}

INSTANTIATE_TEST_SUITE_P(Threads, Transparency, ::testing::Values(1, 2));

// --- Printed metrics ---------------------------------------------------------

TEST(Metrics, CatalogMatchesBenchmarkJson) {
  const auto json =
      moheco::parse_json(read_file(std::string(E2EBENCH_ROOT) +
                                   "/BENCHMARK.json"));
  ASSERT_TRUE(json.has_value());
  std::vector<std::pair<std::string, std::string>> declared[2];
  for (int layer = 0; layer < 2; ++layer) {
    for (const auto& m : (*json)[layer ? "per_layer" : "end_to_end"].items()) {
      declared[layer].emplace_back(m["name"].as_string(),
                                   m["unit"].as_string());
    }
  }
  std::vector<std::pair<std::string, std::string>> catalog[2];
  for (const MetricSpec& m : metric_catalog()) {
    catalog[m.per_layer ? 1 : 0].emplace_back(m.name, m.unit);
  }
  EXPECT_EQ(declared[0], catalog[0]);
  EXPECT_EQ(declared[1], catalog[1]);
}

TEST(Metrics, ResultLinePrintsEveryMetricWithItsUnit) {
  RunOutcome outcome;
  outcome.attempted = 10;
  outcome.metrics["sims_per_s"] = 2.5;
  for (bool trace : {false, true}) {
    const auto line = moheco::parse_json(result_line(outcome, trace));
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->member_names(),
              (std::vector<std::string>{"correct", "attempted", "failed",
                                        "metrics"}));
    const moheco::JsonValue& metrics = (*line)["metrics"];
    std::size_t expected = 0;
    for (const MetricSpec& m : metric_catalog()) {
      if (m.per_layer != trace) continue;
      ++expected;
      ASSERT_TRUE(metrics.has(m.name)) << m.name;
      EXPECT_EQ(metrics[m.name]["unit"].as_string(), m.unit) << m.name;
      EXPECT_TRUE(metrics[m.name]["value"].is_number()) << m.name;
    }
    EXPECT_EQ(metrics.members().size(), expected);
  }
}

TEST(Metrics, ShortOta5tRunsPassTheirChecksInBothModes) {
  const auto reference = moheco::parse_json(
      read_file(std::string(E2EBENCH_ROOT) + "/e2ebench/reference.json"));
  ASSERT_TRUE(reference.has_value());
  RunConfig config;
  config.workload = Workload::kOta5tMc;
  config.seed = 4;
  config.seconds = 0;  // one workload call
  config.deck_text =
      read_file(std::string(E2EBENCH_ROOT) + "/examples/five_t_ota.cir");
  config.reference = parse_reference(*reference);
  for (bool trace : {false, true}) {
    config.trace = trace;
    const RunOutcome out = run_benchmark(config);
    EXPECT_TRUE(out.correct) << out.identity_json;
    EXPECT_EQ(out.failed, 0);
    EXPECT_EQ(out.attempted, 2000);
    for (const MetricSpec& m : metric_catalog()) {
      if (m.per_layer || trace) continue;
      EXPECT_GT(out.metrics.at(m.name), 0.0) << m.name;
    }
    if (trace) {
      EXPECT_EQ(out.metrics.at("circuits.eval.n"), 2000.0);
      EXPECT_EQ(out.metrics.at("circuits.open.n"), 0.0);  // warm only
      EXPECT_GT(out.metrics.at("spice.parse_s"), 0.0);
    }
  }
}

// An optimizer run's simulation count is an outcome, so ex2-opt's rate is
// the work stored for its seed over the time per call, not the work spent.
TEST(Metrics, Ex2SimsPerSecondCountsTheStoredWorkOfItsSeed) {
  const auto reference = moheco::parse_json(
      read_file(std::string(E2EBENCH_ROOT) + "/e2ebench/reference.json"));
  ASSERT_TRUE(reference.has_value());
  RunConfig config;
  config.workload = Workload::kEx2Opt;
  config.seed = 1;
  config.seconds = 0;  // one optimizer run
  config.reference = parse_reference(*reference);
  const RunOutcome out = run_benchmark(config);
  EXPECT_TRUE(out.correct) << out.identity_json;
  const auto& seeds = config.reference.ex2_seeds;
  const double stored = static_cast<double>(seeds[config.seed % seeds.size()].sims);
  EXPECT_NEAR(out.metrics.at("sims_per_s") * out.metrics.at("result_s"),
              stored, 1e-6 * stored);
}

}  // namespace
}  // namespace e2ebench
