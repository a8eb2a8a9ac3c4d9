#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "span_recorder.hpp"
#include "src/circuits/circuit_yield.hpp"
#include "src/circuits/netlist_problem.hpp"
#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/core/moheco.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/metrics.hpp"
#include "src/spice/deck_parser.hpp"
#include "src/stats/rng.hpp"
#include "traced_problem.hpp"

namespace e2ebench {
namespace {

namespace circuits = moheco::circuits;
namespace mc = moheco::mc;
using moheco::JsonObject;
using moheco::JsonValue;

constexpr const char* kDeckName = "examples/five_t_ota.cir";

// ex2-opt: the paper's Table 4 flow at the smoke population, capped so a
// run reaches OCBA rounds, stage-2 promotion and a memetic local search.
constexpr int kEx2Population = 24;
constexpr int kEx2Generations = 20;
// Fresh MC behind ex2-opt's reported-yield check (outside the timed phase).
constexpr long long kEx2ReferenceSamples = 2000;
// Binomial tolerance, in standard errors of the difference.
constexpr double kToleranceZ = 4.0;

struct WorkloadSpec {
  int threads;
  /// Samples per yield estimate (MC workloads); 0 for the optimizer.
  long long samples_per_call;
  /// Fresh set-ups whose median is setup_s: about 1 s of them.  One
  /// sub-millisecond reading is noise on a shared host, and round means
  /// carry the long tail of thread start-up stalls.
  int setups;
};

WorkloadSpec spec_of(Workload w) {
  switch (w) {
    case Workload::kOta5tMc: return {1, 2000, 2000};
    case Workload::kEx2Opt: return {2, 0, 400};
    case Workload::kEx1TranMc: return {1, 250, 150};
  }
  throw moheco::InvalidArgument("unknown workload");
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(steady_ns() - start_ns) / 1e9;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// High-water RSS of this process image.  Not getrusage's ru_maxrss: Linux
/// carries that across execve, so it would report the larger RSS of the
/// launcher that forked this process.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  throw moheco::Error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string join_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + items[i];
  }
  return out + "]";
}

std::string json_array(const std::vector<double>& v) {
  std::vector<std::string> items;
  for (double x : v) items.push_back(moheco::json_number(x));
  return join_array(items);
}

/// Span when tracing, nothing otherwise; optionally the ambient parent of
/// spans opened on pool workers while it lives.
class MaybeSpan {
 public:
  MaybeSpan(SpanRecorder* recorder, const char* name, bool ambient = false) {
    if (recorder == nullptr) return;
    span_.emplace(*recorder, name);
    if (ambient) ambient_.emplace(*recorder, *span_);
  }

 private:
  std::optional<SpanRecorder::Span> span_;
  std::optional<SpanRecorder::AmbientScope> ambient_;
};

/// One set-up: everything a workload needs to start sampling.  Members are
/// destroyed in reverse order, so the scheduler (whose cached sessions point
/// into the problem) goes before the pool and the problem.
struct Instance {
  std::unique_ptr<circuits::CircuitYieldProblem> problem;
  std::unique_ptr<TracedProblem> traced;
  std::unique_ptr<moheco::ThreadPool> pool;
  std::unique_ptr<mc::EvalScheduler> scheduler;
  std::vector<double> design;  ///< the workload's stored design

  const mc::YieldProblem& active() const {
    return traced ? static_cast<const mc::YieldProblem&>(*traced) : *problem;
  }
};

std::unique_ptr<Instance> set_up(const RunConfig& config,
                                 SpanRecorder* recorder) {
  const WorkloadSpec spec = spec_of(config.workload);
  auto inst = std::make_unique<Instance>();
  MaybeSpan setup_span(recorder, "bench.setup");
  switch (config.workload) {
    case Workload::kOta5tMc: {
      std::optional<moheco::spice::Deck> deck;
      {
        MaybeSpan s(recorder, "spice.parse");
        deck.emplace(moheco::spice::parse_deck_string(config.deck_text,
                                                      kDeckName));
      }
      MaybeSpan s(recorder, "circuits.problem");
      auto problem =
          std::make_unique<circuits::NetlistYieldProblem>(std::move(*deck));
      inst->design = problem->nominal_x();
      inst->problem = std::move(problem);
      break;
    }
    case Workload::kEx2Opt: {
      MaybeSpan s(recorder, "circuits.problem");
      inst->problem = std::make_unique<circuits::CircuitYieldProblem>(
          circuits::make_two_stage_telescopic());
      inst->design = config.reference.ex2_design;
      break;
    }
    case Workload::kEx1TranMc: {
      MaybeSpan s(recorder, "circuits.problem");
      circuits::EvalOptions options;
      options.transient = true;
      inst->problem = std::make_unique<circuits::CircuitYieldProblem>(
          circuits::make_folded_cascode(), options);
      inst->design = config.reference.ex1_design;
      break;
    }
  }
  {
    MaybeSpan s(recorder, "bench.pool");
    inst->pool = std::make_unique<moheco::ThreadPool>(spec.threads);
    inst->scheduler = std::make_unique<mc::EvalScheduler>(*inst->pool);
  }
  if (recorder != nullptr) {
    inst->traced = std::make_unique<TracedProblem>(*inst->problem, *recorder);
  }
  {
    // The nominal DC+AC(+transient) measurement at the stored design, as a
    // cached scheduler session: MC workloads then sample warm.
    MaybeSpan s(recorder, "circuits.first_open", /*ambient=*/true);
    mc::CandidateYield tally(inst->active(), inst->design, 0);
    inst->scheduler->for_each(tally, 1,
                              [](mc::YieldProblem::Session&, std::size_t) {});
  }
  return inst;
}

/// What one workload call returned.
struct CallResult {
  double yield = 0.0;
  long long sims = 0;
  std::vector<double> design;
  bool feasible = true;
  long long reported_samples = 0;
  int generations = 0;
  long long quarantined = 0;
  int local_searches = 0;
  long long phase[5] = {0, 0, 0, 0, 0};  ///< screen/stage1/ocba/stage2/other

  bool same_outcome(const CallResult& o) const {
    return yield == o.yield && sims == o.sims && design == o.design &&
           feasible == o.feasible && generations == o.generations;
  }
};

const Reference::SeedRun& optimizer_seed(const RunConfig& config) {
  const auto& seeds = config.reference.ex2_seeds;
  return seeds[config.seed % seeds.size()];
}

std::uint64_t sample_seed(const RunConfig& config) {
  return moheco::stats::derive_seed(config.seed, 0xE2E);
}

/// One workload call on `problem`: the MC estimate moheco_cli --estimate
/// runs, or one optimizer run.  Sessions and warm blobs of an optimizer run
/// are dropped afterwards, as serve::JobRunner does, so no call starts from
/// another call's warm state.
CallResult call_workload(const RunConfig& config, Instance& inst,
                         const mc::YieldProblem& problem) {
  const WorkloadSpec spec = spec_of(config.workload);
  CallResult r;
  if (config.workload != Workload::kEx2Opt) {
    r.yield = mc::reference_yield(problem, inst.design, spec.samples_per_call,
                                  sample_seed(config), *inst.scheduler,
                                  moheco::stats::SamplingMethod::kLHS);
    r.sims = spec.samples_per_call;
    r.design = inst.design;
    r.reported_samples = spec.samples_per_call;
    return r;
  }
  moheco::core::MohecoOptions options;
  options.population = kEx2Population;
  options.max_generations = kEx2Generations;
  options.seed = optimizer_seed(config).seed;
  moheco::core::MohecoResult result;
  try {
    moheco::core::MohecoOptimizer optimizer(problem, options, *inst.scheduler);
    result = optimizer.run();
  } catch (...) {
    inst.scheduler->forget_problem(&problem);
    throw;
  }
  inst.scheduler->forget_problem(&problem);
  r.yield = result.best.fitness.yield;
  r.sims = result.total_simulations;
  r.design = result.best.x;
  r.feasible = result.best.fitness.feasible;
  r.reported_samples = result.best.samples;
  r.generations = result.generations;
  r.quarantined = result.fail_breakdown.total();
  for (const auto& g : result.trace) r.local_searches += g.local_search_triggered;
  const auto& b = result.sim_breakdown;
  const long long phases[5] = {b.screen, b.stage1, b.ocba, b.stage2, b.other};
  std::copy(phases, phases + 5, r.phase);
  return r;
}

/// Registry counters by name, read before and after the timed phase (the
/// registry is process-global, so only deltas describe this phase).  A name
/// the program never registered reads 0 and is reported as absent.
class CounterDeltas {
 public:
  static std::map<std::string, std::uint64_t> read() {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] : moheco::obs::registry().snapshot().counters) {
      out[name] = value;
    }
    return out;
  }
  CounterDeltas(std::map<std::string, std::uint64_t> before,
                std::map<std::string, std::uint64_t> after)
      : before_(std::move(before)), after_(std::move(after)) {}

  double operator()(const std::string& name) {
    const auto a = after_.find(name);
    if (a == after_.end()) {
      absent_.insert(name);
      return 0.0;
    }
    const auto b = before_.find(name);
    return static_cast<double>(a->second -
                               (b == before_.end() ? 0 : b->second));
  }
  double sum_with_prefix(const std::string& prefix) const {
    double total = 0.0;
    for (const auto& [name, value] : after_) {
      if (name.rfind(prefix, 0) != 0) continue;
      const auto b = before_.find(name);
      total += static_cast<double>(value - (b == before_.end() ? 0 : b->second));
    }
    return total;
  }
  const std::set<std::string>& absent() const { return absent_; }

 private:
  std::map<std::string, std::uint64_t> before_, after_;
  std::set<std::string> absent_;
};

/// Sum of durations, CPU times and payloads of one span name inside
/// [lo, hi].
struct SpanTotal {
  long long count = 0;
  long long payload = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
};

SpanTotal total_of(const std::vector<SpanRecord>& spans, const char* name,
                   std::uint64_t lo, std::uint64_t hi) {
  SpanTotal t;
  const std::string_view want(name);
  for (const SpanRecord& s : spans) {
    if (s.start_ns < lo || s.end_ns > hi || want != s.name) continue;
    ++t.count;
    t.payload += s.n;
    t.seconds += static_cast<double>(s.duration_ns()) / 1e9;
    t.cpu_seconds += static_cast<double>(s.cpu_ns) / 1e9;
  }
  return t;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class Checks {
 public:
  void add(const std::string& name, bool ok, const std::string& detail) {
    ok_ = ok_ && ok;
    JsonObject o;
    o.add_string("name", name);
    o.add_bool("ok", ok);
    o.add_string("detail", detail);
    items_.push_back(o.str());
  }
  bool ok() const { return ok_; }
  std::string json() const { return join_array(items_); }

 private:
  bool ok_ = true;
  std::vector<std::string> items_;
};

/// |a - b| within kToleranceZ standard errors of a difference of two
/// binomial proportions (pooled, clamped off 0 and 1).
bool within_binomial(double a, long long na, double b, long long nb,
                     std::string* detail) {
  const double n = static_cast<double>(na + nb);
  const double pooled = std::clamp(
      (a * static_cast<double>(na) + b * static_cast<double>(nb)) / n,
      0.5 / n, 1.0 - 0.5 / n);
  const double tol =
      kToleranceZ * std::sqrt(pooled * (1.0 - pooled) *
                              (1.0 / static_cast<double>(na) +
                               1.0 / static_cast<double>(nb)));
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.5f (n=%lld) vs %.5f (n=%lld), tol %.5f",
                a, na, b, nb, tol);
  *detail = buf;
  return std::fabs(a - b) <= tol;
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kOta5tMc: return "ota5t-mc";
    case Workload::kEx2Opt: return "ex2-opt";
    case Workload::kEx1TranMc: return "ex1-tran-mc";
  }
  return "?";
}

bool parse_workload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kOta5tMc, Workload::kEx2Opt,
                     Workload::kEx1TranMc}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

Reference parse_reference(const JsonValue& json) {
  auto numbers = [](const JsonValue& v, const char* what) {
    std::vector<double> out;
    for (const JsonValue& item : v.items()) out.push_back(item.as_number());
    moheco::require(!out.empty(), std::string("reference.json: no ") + what);
    return out;
  };
  Reference r;
  const JsonValue& ota = json["ota5t-mc"];
  r.ota5t_yield = ota["yield"].as_number(-1.0);
  r.ota5t_samples = ota["samples"].as_int();
  const JsonValue& ex1 = json["ex1-tran-mc"];
  r.ex1_design = numbers(ex1["design"], "ex1-tran-mc design");
  r.ex1_yield = ex1["yield"].as_number(-1.0);
  r.ex1_samples = ex1["samples"].as_int();
  const JsonValue& ex2 = json["ex2-opt"];
  r.ex2_design = numbers(ex2["design"], "ex2-opt design");
  for (const JsonValue& s : ex2["seed_runs"].items()) {
    r.ex2_seeds.push_back({s["seed"].as_uint(), s["sims"].as_int()});
    moheco::require(r.ex2_seeds.back().sims > 0,
                    "reference.json: ex2-opt seed run without simulations");
  }
  moheco::require(!r.ex2_seeds.empty(), "reference.json: no ex2-opt seeds");
  moheco::require(r.ota5t_samples > 0 && r.ex1_samples > 0 &&
                      r.ota5t_yield >= 0.0 && r.ex1_yield >= 0.0,
                  "reference.json: missing reference yield");
  r.command = json["provenance"]["command"].as_string();
  r.commit = json["provenance"]["commit"].as_string();
  return r;
}

const std::vector<MetricSpec>& metric_catalog() {
  static const std::vector<MetricSpec> catalog = {
      {"sims_per_s", "1/s", false},
      {"result_s", "s", false},
      {"result_cpu_s", "s", false},
      {"setup_s", "s", false},
      {"peak_rss_mb", "MB", false},
      {"spice.parse_s", "s", true},
      {"circuits.problem_s", "s", true},
      {"circuits.first_open_s", "s", true},
      {"circuits.eval.n", "count", true},
      {"circuits.eval.us", "us", true},
      {"circuits.eval.share", "ratio", true},
      {"circuits.open.n", "count", true},
      {"circuits.open.ms", "ms", true},
      {"circuits.open.share", "ratio", true},
      {"circuits.open_warm.n", "count", true},
      {"circuits.open_warm.us", "us", true},
      {"mc.session_hit_ratio", "ratio", true},
      {"spice.factors_per_sim", "count/sim", true},
      {"spice.solves_per_sim", "count/sim", true},
      {"spice.batch_factors_per_sim", "count/sim", true},
      {"tran.steps_per_sim", "count/sim", true},
      {"tran.newton_per_step", "count/step", true},
      {"mc.self.share", "ratio", true},
      {"mc.wait.share", "ratio", true},
      {"mc.flushes", "count", true},
      {"mc.steals", "count", true},
      {"core.generations", "count", true},
      {"core.sims", "count", true},
      {"core.yield", "ratio", true},
      {"mc.sims.screen", "count", true},
      {"mc.sims.stage1", "count", true},
      {"mc.sims.ocba", "count", true},
      {"mc.sims.stage2", "count", true},
      {"mc.sims.other", "count", true},
      {"fail.ops", "count", true},
  };
  return catalog;
}

RunOutcome run_benchmark(const RunConfig& config) {
  const WorkloadSpec spec = spec_of(config.workload);
  std::optional<SpanRecorder> recorder;
  if (config.trace) recorder.emplace(static_cast<std::uint32_t>(config.seed));
  SpanRecorder* rec = recorder ? &*recorder : nullptr;

  std::unique_ptr<Instance> inst = set_up(config, rec);
  if (config.workload == Workload::kEx2Opt) {
    // Every optimizer run starts from the same empty scheduler.
    inst->scheduler->forget_problem(&inst->active());
  }

  // --- Timed phase: whole workload calls, at least one.
  RunOutcome out;
  Checks checks;
  std::vector<CallResult> calls;
  long long failed_calls = 0;
  const auto counters_before = CounterDeltas::read();
  const double cpu_before = cpu_seconds();
  const std::uint64_t t0 = steady_ns();
  for (;;) {
    try {
      MaybeSpan call_span(rec, "bench.call", /*ambient=*/true);
      calls.push_back(call_workload(config, *inst, inst->active()));
    } catch (const std::exception& e) {
      ++failed_calls;
      checks.add("call", false, e.what());
      break;
    }
    // Stop when the next call would likely end more than half a call past
    // the time: run length stays near --seconds even for 10-s calls.
    const double elapsed = seconds_since(t0);
    if (elapsed + 0.5 * elapsed / static_cast<double>(calls.size()) >=
        config.seconds) {
      break;
    }
  }
  const std::uint64_t t1 = steady_ns();
  const double wall = static_cast<double>(t1 - t0) / 1e9;
  const double cpu = cpu_seconds() - cpu_before;
  const double rss_mb = peak_rss_mb();
  CounterDeltas delta(counters_before, CounterDeltas::read());

  // --- Set-up, measured after the timed phase in a warmed-up process: the
  // median of many fresh set-ups, each torn down untimed.
  std::vector<double> setup_s;
  for (int i = 0; i < spec.setups; ++i) {
    const std::uint64_t start = steady_ns();
    const std::unique_ptr<Instance> fresh = set_up(config, rec);
    setup_s.push_back(seconds_since(start));
  }

  // --- Checks, outside the timed phase.
  for (const CallResult& c : calls) out.attempted += c.sims;
  for (const CallResult& c : calls) {
    if (!c.same_outcome(calls.front())) {
      checks.add("repeatable", false, "calls at one seed disagree");
      break;
    }
  }
  long long failed_sims = 0;
  if (!calls.empty()) {
    const CallResult& first = calls.front();
    std::string detail;
    if (config.workload == Workload::kEx2Opt) {
      checks.add("ex2.feasible", first.feasible, "returned design feasible");
      checks.add("ex2.no_quarantine", first.quarantined == 0,
                 std::to_string(first.quarantined) + " quarantined");
      double reference = 0.0;
      if (first.feasible) {
        reference = mc::reference_yield(
            *inst->problem, first.design, kEx2ReferenceSamples,
            moheco::stats::derive_seed(config.seed, 0xFEF), *inst->scheduler);
        inst->scheduler->forget_problem(inst->problem.get());
      }
      const bool ok = within_binomial(first.yield, first.reported_samples,
                                      reference, kEx2ReferenceSamples, &detail);
      checks.add("ex2.reported_vs_reference", ok, detail);
      if (!ok || !first.feasible) failed_sims = out.attempted;
      failed_sims += first.quarantined * static_cast<long long>(calls.size());
    } else {
      const bool ota = config.workload == Workload::kOta5tMc;
      const double ref =
          ota ? config.reference.ota5t_yield : config.reference.ex1_yield;
      const long long ref_n =
          ota ? config.reference.ota5t_samples : config.reference.ex1_samples;
      const bool ok = within_binomial(first.yield, first.sims, ref, ref_n,
                                      &detail);
      checks.add("mc.yield_vs_reference", ok, detail);
      if (!ok) failed_sims = out.attempted;
    }
  }
  if (config.trace && !calls.empty()) {
    // The same call on the bare problem must return the same outcome.
    try {
      const CallResult plain = call_workload(config, *inst, *inst->problem);
      checks.add("traced_equals_untraced", plain.same_outcome(calls.front()),
                 "yield, simulations and design");
    } catch (const std::exception& e) {
      checks.add("traced_equals_untraced", false, e.what());
    }
  }
  const double solves =
      delta("solver.solves") + delta("solver.batch_solves");
  if (delta.absent().count("solver.solves") &&
      delta.absent().count("solver.batch_solves")) {
    checks.add("full_work", true, "unverified: solver counters absent");
  } else {
    checks.add("full_work", solves >= static_cast<double>(out.attempted),
               std::to_string(static_cast<long long>(solves)) +
                   " linear solves for " + std::to_string(out.attempted) +
                   " simulations");
  }
  const double ladder = delta.sum_with_prefix("fail.");
  failed_sims += static_cast<long long>(ladder);
  if (failed_calls > 0) failed_sims += std::max<long long>(1, spec.samples_per_call);

  // --- Metrics.
  const double n_calls = static_cast<double>(std::max<std::size_t>(calls.size(), 1));
  const double sims = static_cast<double>(out.attempted);
  // Work the input fixes per call.  An optimizer run's simulation count is
  // an outcome, so ex2-opt counts the simulations stored for its seed: its
  // sims_per_s is result_s inverted and never rewards spending more.
  const double work_per_call =
      config.workload == Workload::kEx2Opt
          ? static_cast<double>(optimizer_seed(config).sims)
          : static_cast<double>(spec.samples_per_call);
  auto& m = out.metrics;
  m["sims_per_s"] = ratio(work_per_call * static_cast<double>(calls.size()), wall);
  m["result_s"] = wall / n_calls;
  m["result_cpu_s"] = cpu / n_calls;
  m["setup_s"] = median(setup_s);
  m["peak_rss_mb"] = rss_mb;

  const double batch_factors = delta("solver.batch_factors");
  const double batch_refactors = delta("linalg.batch_refactors");
  m["spice.factors_per_sim"] = ratio(delta("solver.factors"), sims);
  m["spice.solves_per_sim"] = ratio(delta("solver.solves"), sims);
  m["spice.batch_factors_per_sim"] = ratio(batch_factors, sims);
  const double steps = delta("tran.steps");
  m["tran.steps_per_sim"] = ratio(steps, sims);
  m["tran.newton_per_step"] = ratio(delta("tran.newton_iterations"), steps);
  const double hits = delta("sched.session_hits");
  m["mc.session_hit_ratio"] = ratio(
      hits, hits + delta("sched.cold_opens") + delta("sched.warm_opens"));
  m["mc.flushes"] = delta("sched.flushes") / n_calls;
  m["mc.steals"] = delta("sched.steals") / n_calls;
  m["fail.ops"] = static_cast<double>(failed_sims);
  if (!calls.empty() && config.workload == Workload::kEx2Opt) {
    const CallResult& c = calls.front();
    m["core.generations"] = c.generations;
    m["core.sims"] = static_cast<double>(c.sims);
    m["core.yield"] = c.yield;
    const char* phases[5] = {"mc.sims.screen", "mc.sims.stage1", "mc.sims.ocba",
                             "mc.sims.stage2", "mc.sims.other"};
    for (int i = 0; i < 5; ++i) m[phases[i]] = static_cast<double>(c.phase[i]);
  }

  std::string spans_json = "null";
  if (rec != nullptr) {
    const std::vector<SpanRecord> spans = rec->spans();
    const double thread_wall = spec.threads * wall;
    const SpanTotal eval = total_of(spans, "circuits.eval", t0, t1);
    const SpanTotal open = total_of(spans, "circuits.open", t0, t1);
    const SpanTotal warm = total_of(spans, "circuits.open_warm", t0, t1);
    // Set-up steps: means over every set-up of the run.
    const std::uint64_t all = ~std::uint64_t{0};
    const double n_setups =
        std::max<double>(1.0, total_of(spans, "bench.setup", 0, all).count);
    m["spice.parse_s"] = total_of(spans, "spice.parse", 0, all).seconds / n_setups;
    m["circuits.problem_s"] =
        total_of(spans, "circuits.problem", 0, all).seconds / n_setups;
    m["circuits.first_open_s"] =
        total_of(spans, "circuits.first_open", 0, all).seconds / n_setups;
    m["circuits.eval.n"] = static_cast<double>(eval.payload) / n_calls;
    m["circuits.eval.us"] = 1e6 * ratio(eval.seconds, eval.payload);
    m["circuits.eval.share"] = ratio(eval.seconds, thread_wall);
    m["circuits.open.n"] = static_cast<double>(open.count) / n_calls;
    m["circuits.open.ms"] = 1e3 * ratio(open.seconds, open.count);
    m["circuits.open.share"] = ratio(open.seconds, thread_wall);
    m["circuits.open_warm.n"] = static_cast<double>(warm.count) / n_calls;
    m["circuits.open_warm.us"] = 1e6 * ratio(warm.seconds, warm.count);
    // CPU against CPU: span wall time also holds time the hypervisor stole.
    const double in_circuits_cpu =
        eval.cpu_seconds + open.cpu_seconds + warm.cpu_seconds;
    m["mc.self.share"] = ratio(cpu - in_circuits_cpu, thread_wall);
    m["mc.wait.share"] = 1.0 - ratio(cpu, thread_wall);

    checks.add("decorator_saw_every_simulation",
               eval.payload == out.attempted,
               std::to_string(eval.payload) + " evaluated lanes for " +
                   std::to_string(out.attempted) + " simulations");
    checks.add("no_span_dropped",
               rec->begun() == rec->recorded() &&
                   rec->recorded() == spans.size(),
               std::to_string(spans.size()) + " of " +
                   std::to_string(rec->begun()) + " spans kept");
    failed_sims += inst->traced->failed_calls();
    m["fail.ops"] = static_cast<double>(failed_sims);
    bool written = false;
    if (!config.trace_path.empty()) {
      std::ofstream file(config.trace_path);
      write_trace_events(file, spans);
      written = static_cast<bool>(file);
      checks.add("trace_written", written, config.trace_path);
    }
    JsonObject s;
    s.add_uint("begun", rec->begun());
    s.add_uint("recorded", rec->recorded());
    s.add_string("file", written ? config.trace_path : "");
    spans_json = s.str();
  }
  out.failed = failed_sims;
  out.correct = checks.ok() && failed_sims == 0;

  JsonObject eval_path;
  eval_path.add_number("solver.batch_factors", batch_factors);
  eval_path.add_number("linalg.batch_refactors", batch_refactors);
  eval_path.add_string("path", batch_factors + batch_refactors > 0.0
                                   ? "batched"
                                   : "scalar");
  JsonObject reference;
  reference.add_string("command", config.reference.command);
  reference.add_string("commit", config.reference.commit);
  std::vector<std::string> absent;
  for (const std::string& name : delta.absent()) {
    absent.push_back("\"" + moheco::json_escape(name) + "\"");
  }

  JsonObject id;
  id.add_string("workload", workload_name(config.workload));
  id.add_uint("seed", config.seed);
  id.add_int("threads", spec.threads);
  id.add_bool("trace", config.trace);
  if (config.workload == Workload::kEx2Opt) {
    id.add_uint("optimizer_seed", optimizer_seed(config).seed);
  } else {
    id.add_uint("sample_seed", sample_seed(config));
    id.add_int("samples_per_call", spec.samples_per_call);
  }
  id.add_raw("build", moheco::obs::build_json());
  id.add_raw("eval_path", eval_path.str());
  id.add_raw("reference", reference.str());
  id.add_int("calls", static_cast<long long>(calls.size()));
  id.add_number("timed_s", wall);
  id.add_number("timed_cpu_s", cpu);
  id.add_int("setups", spec.setups);
  if (!calls.empty() && config.workload == Workload::kEx2Opt) {
    id.add_int("local_searches", calls.front().local_searches);
  }
  id.add_raw("absent_counters", join_array(absent));
  id.add_raw("checks", checks.json());
  id.add_raw("spans", spans_json);
  out.identity_json = id.str();
  return out;
}

std::string result_line(const RunOutcome& outcome, bool trace) {
  JsonObject metrics;
  for (const MetricSpec& spec : metric_catalog()) {
    if (spec.per_layer != trace) continue;
    const auto it = outcome.metrics.find(spec.name);
    JsonObject m;
    m.add_number("value", it == outcome.metrics.end() ? 0.0 : it->second);
    m.add_string("unit", spec.unit);
    metrics.add_raw(spec.name, m.str());
  }
  JsonObject line;
  line.add_bool("correct", outcome.correct);
  line.add_int("attempted", outcome.attempted);
  line.add_int("failed", outcome.failed);
  line.add_raw("metrics", metrics.str());
  return line.str();
}

std::string make_reference(const std::string& deck_text,
                           const std::string& commit) {
  constexpr long long kSamples = 20000;
  // Reference yields do not depend on the thread count; 4 only sets how
  // long regeneration takes.
  constexpr int kThreads = 4;
  constexpr const char* kCommand = "python3 e2ebench/run.py --make-reference";
  moheco::ThreadPool pool(kThreads);
  mc::EvalScheduler scheduler(pool);

  circuits::NetlistYieldProblem ota(
      moheco::spice::parse_deck_string(deck_text, kDeckName));
  const std::vector<double> ota_x = ota.nominal_x();
  const double ota_yield =
      mc::reference_yield(ota, ota_x, kSamples, 0x0A5, scheduler);
  scheduler.forget_problem(&ota);

  // The canonical Example 1 / Example 2 design points of the transient
  // tests (tests/test_circuits_transient.cpp); both meet every spec at the
  // nominal process point.
  const std::vector<double> ex1_x = {260e-6, 105e-6, 160e-6, 160e-6,
                                     100e-6, 0.7e-6, 0.5e-6, 1.0e-6,
                                     38e-6,  4.6,    1.9};
  const std::vector<double> ex2_x = {50e-6,  40e-6,  60e-6,  80e-6,  40e-6,
                                     100e-6, 0.2e-6, 0.2e-6, 0.15e-6, 5.0e-5,
                                     4.0,    1.1e-12, 300.0};
  circuits::EvalOptions transient;
  transient.transient = true;
  circuits::CircuitYieldProblem ex1(circuits::make_folded_cascode(),
                                    transient);
  const double ex1_yield =
      mc::reference_yield(ex1, ex1_x, kSamples, 0xE41, scheduler);
  scheduler.forget_problem(&ex1);

  // ex2-opt seeds.  Optimizer seeds change the amount of work by up to 15x
  // (2,988 to 47,539 simulations over seeds 1-40 at the parent commit),
  // mostly through how many memetic local searches fire, which would make
  // result_s a function of the seed rather than of the code.  The pool keeps
  // the seeds whose capped run is feasible, reaches OCBA rounds and stage-2
  // promotion, runs exactly one local search, takes no failure-ladder rung
  // and quarantines nothing (no operation fails), and belongs to the
  // largest group of such seeds whose simulation counts agree within 6%.
  circuits::CircuitYieldProblem ex2(circuits::make_two_stage_telescopic());
  moheco::ThreadPool ex2_pool(2);
  mc::EvalScheduler ex2_scheduler(ex2_pool);
  std::vector<std::pair<std::uint64_t, long long>> candidates;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    moheco::core::MohecoOptions options;
    options.population = kEx2Population;
    options.max_generations = kEx2Generations;
    options.seed = seed;
    moheco::core::MohecoOptimizer optimizer(ex2, options, ex2_scheduler);
    const auto before = CounterDeltas::read();
    const moheco::core::MohecoResult r = optimizer.run();
    const double rungs =
        CounterDeltas(before, CounterDeltas::read()).sum_with_prefix("fail.");
    ex2_scheduler.forget_problem(&ex2);
    int local_searches = 0;
    for (const auto& g : r.trace) local_searches += g.local_search_triggered;
    std::fprintf(stderr, "ex2 seed %llu: sims %lld ocba %lld stage2 %lld "
                 "local_searches %d feasible %d failed %.0f\n",
                 static_cast<unsigned long long>(seed), r.total_simulations,
                 r.sim_breakdown.ocba, r.sim_breakdown.stage2, local_searches,
                 r.best.fitness.feasible ? 1 : 0,
                 rungs + static_cast<double>(r.fail_breakdown.total()));
    if (r.best.fitness.feasible && r.sim_breakdown.ocba > 0 &&
        r.sim_breakdown.stage2 > 0 && local_searches == 1 && rungs == 0.0 &&
        r.fail_breakdown.total() == 0) {
      candidates.emplace_back(seed, r.total_simulations);
    }
  }
  // The largest group whose counts lie within 6% of each other.
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::size_t best_lo = 0, best_n = 0;
  for (std::size_t lo = 0, hi = 0; lo < candidates.size(); ++lo) {
    while (hi < candidates.size() &&
           static_cast<double>(candidates[hi].second) <=
               1.06 * static_cast<double>(candidates[lo].second)) {
      ++hi;
    }
    if (hi - lo > best_n) {
      best_lo = lo;
      best_n = hi - lo;
    }
  }
  std::vector<std::string> kept;
  for (std::size_t i = best_lo; i < best_lo + best_n; ++i) {
    JsonObject s;
    s.add_uint("seed", candidates[i].first);
    s.add_int("sims", candidates[i].second);
    kept.push_back(s.str());
  }

  JsonObject provenance;
  provenance.add_string("command", kCommand);
  provenance.add_string("commit", commit);
  JsonObject o;
  o.add_int("samples", kSamples);
  o.add_number("yield", ota_yield);
  o.add_raw("design", json_array(ota_x));
  JsonObject e1;
  e1.add_int("samples", kSamples);
  e1.add_number("yield", ex1_yield);
  e1.add_raw("design", json_array(ex1_x));
  JsonObject e2;
  e2.add_raw("design", json_array(ex2_x));
  e2.add_raw("seed_runs", join_array(kept));
  JsonObject root;
  root.add_raw("provenance", provenance.str());
  root.add_raw("ota5t-mc", o.str());
  root.add_raw("ex1-tran-mc", e1.str());
  root.add_raw("ex2-opt", e2.str());
  return root.str();
}

}  // namespace e2ebench
