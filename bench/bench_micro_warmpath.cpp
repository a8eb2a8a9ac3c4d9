// Micro benchmark for the warm evaluation path: the warm-start blob store,
// measured against the same sticky-affinity scheduler with the store
// disabled (warm_start_blobs = 0) on identical work.
//
// The synthetic problem charges a large session-open cost (the nominal
// measurement stand-in) and a small per-sample cost, like the circuit
// problems.  Two workloads:
//
//   - eviction-heavy: candidates per worker == cache capacity.  Sticky
//     affinity pins each candidate to one worker, which kills the LRU
//     thrash while workers run concurrently; on an oversubscribed host the
//     OS serializes the workers, stealing defeats affinity, and every
//     rebuilt session re-runs the expensive nominal measurement from cold
//     unless the blob store revives it.  Gates >= 3x fewer COLD session
//     opens (full nominal re-measurements) and >= 1.5x samples/sec at 8
//     workers.  Total opens are reported too.
//   - capacity-constrained: cache capacity below candidates per worker, so
//     even a perfectly sticky run must evict.  The warm-start blob store
//     turns those rebuilds into cheap revivals.  Gates >= 1.5x samples/sec
//     at 8 workers.
//
// Doubles as a correctness gate: tallies must be bit-identical across
// blobs on/off, worker counts and cache capacities.  Violations exit
// non-zero so CI fails.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_support.hpp"
#include "src/common/parallel.hpp"
#include "src/common/table.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/stats/rng.hpp"

namespace {

using namespace moheco;

inline void keep(double& value) { asm volatile("" : "+m"(value)); }

void spin(int iterations) {
  double acc = 1.0;
  for (int k = 0; k < iterations; ++k) acc += acc * 1e-12 + 1e-9;
  keep(acc);
}

/// Quadratic-margin pass/fail with an expensive open() (the nominal
/// measurement stand-in) and a cheap evaluate(), plus warm-start support:
/// a valid blob skips the open cost, as the circuit problems skip their
/// nominal DC+AC measurement.
class WarmPathProblem final : public mc::YieldProblem {
 public:
  WarmPathProblem(int open_spin, int eval_spin, double sigma)
      : open_spin_(open_spin), eval_spin_(eval_spin), sigma_(sigma) {}

  std::size_t num_design_vars() const override { return 1; }
  double lower_bound(std::size_t) const override { return -2.0; }
  double upper_bound(std::size_t) const override { return 2.0; }
  std::size_t noise_dim() const override { return 4; }

  class WarmSession final : public Session {
   public:
    WarmSession(const WarmPathProblem* parent, double x, bool from_blob)
        : parent_(parent), x_(x), margin_(1.0 - x * x) {
      if (!from_blob) spin(parent_->open_spin_);
    }

    mc::SampleResult evaluate(std::span<const double> xi) override {
      spin(parent_->eval_spin_);
      double w = 0.0;
      for (double z : xi) w += z;
      const double g = margin_ + parent_->sigma_ * 0.5 * w;
      mc::SampleResult r;
      r.pass = g >= 0.0;
      r.violation = r.pass ? 0.0 : -g;
      return r;
    }

    std::vector<double> warm_start_blob() const override {
      return {1.0, x_, margin_};
    }

   private:
    const WarmPathProblem* parent_;
    double x_;
    double margin_;
  };

  std::unique_ptr<Session> open(std::span<const double> x) const override {
    return std::make_unique<WarmSession>(this, x[0], /*from_blob=*/false);
  }

  std::unique_ptr<Session> open_warm(
      std::span<const double> x,
      std::span<const double> blob) const override {
    // Validate like the circuit problems: version + exact design match.
    if (blob.size() == 3 && blob[0] == 1.0 && blob[1] == x[0]) {
      return std::make_unique<WarmSession>(this, x[0], /*from_blob=*/true);
    }
    return open(x);
  }

 private:
  int open_spin_;
  int eval_spin_;
  double sigma_;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct RunResult {
  double samples_per_sec = 0.0;
  long long session_opens = 0;
  long long warm_opens = 0;
  long long affinity_hits = 0;
  long long steals = 0;
  long long migrations = 0;
  std::vector<long long> passes;  ///< per-candidate tally (determinism key)
};

RunResult run_rounds(const mc::YieldProblem& problem, int num_candidates,
                     int rounds, int per_candidate, int workers,
                     const mc::SchedulerOptions& scheduler_options,
                     std::uint64_t seed) {
  ThreadPool pool(workers);
  mc::EvalScheduler scheduler(pool, scheduler_options);
  std::vector<std::unique_ptr<mc::CandidateYield>> candidates;
  candidates.reserve(static_cast<std::size_t>(num_candidates));
  for (int i = 0; i < num_candidates; ++i) {
    const double x = -1.5 + 3.0 * i / std::max(1, num_candidates - 1);
    candidates.push_back(std::make_unique<mc::CandidateYield>(
        problem, std::vector<double>{x},
        stats::derive_seed(seed, 0x3A9A, static_cast<std::uint64_t>(i))));
  }
  mc::SimCounter sims;
  const mc::McOptions mc_options;

  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (auto& c : candidates) {
      scheduler.enqueue(*c, per_candidate, mc_options);
    }
    scheduler.flush(sims, mc::SimPhase::kOcba);
  }
  const double elapsed = seconds_since(start);

  RunResult result;
  result.samples_per_sec = static_cast<double>(sims.total()) / elapsed;
  result.session_opens = scheduler.session_opens();
  result.warm_opens = scheduler.warm_opens();
  result.affinity_hits = scheduler.affinity_hits();
  result.steals = scheduler.steals();
  result.migrations = scheduler.migrations();
  for (const auto& c : candidates) result.passes.push_back(c->passes());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = bench::bench_prologue(
      argc, argv,
      "Micro: warm-start blob store vs the same scheduler without it");
  const bool smoke = options.scale == BenchScale::kSmoke;
  const int num_candidates = 64;
  const int open_spin = 40000;  // ~tens of us: nominal measurement stand-in
  const int eval_spin = 600;    // under a us: per-sample solve stand-in
  const WarmPathProblem problem(open_spin, eval_spin, 0.5);

  struct Scenario {
    const char* name;
    int sessions_per_worker;
    bool gate_opens;  ///< the >= 3x session-open reduction gate
  };
  const Scenario scenarios[] = {
      // candidates/worker == capacity at 8 workers: sticky -> no evictions
      // while the workers really run side by side.
      {"eviction-heavy (cap=8)", 8, true},
      // capacity below candidates/worker: warm-start revivals carry it.
      {"capacity-constrained (cap=4)", 4, false},
  };
  const std::vector<int> worker_counts =
      smoke ? std::vector<int>{2, 8} : std::vector<int>{1, 2, 4, 8};
  const int per_candidate = 2;
  const int rounds = smoke ? 12 : 30;

  Table table({"workload", "workers", "no-blob samp/s", "warm samp/s",
               "speedup", "opens no-blob", "opens warm", "cold opens",
               "warm share", "steals"});
  bool ok = true;
  std::string json_rows;
  std::vector<long long> reference_passes;
  for (const Scenario& scenario : scenarios) {
    for (int workers : worker_counts) {
      mc::SchedulerOptions baseline;  // every miss re-measures from cold
      baseline.sessions_per_worker = scenario.sessions_per_worker;
      baseline.warm_start_blobs = 0;
      mc::SchedulerOptions warm;
      warm.sessions_per_worker = scenario.sessions_per_worker;

      const RunResult cold = run_rounds(problem, num_candidates, rounds,
                                        per_candidate, workers, baseline,
                                        options.seed);
      const RunResult opt = run_rounds(problem, num_candidates, rounds,
                                       per_candidate, workers, warm,
                                       options.seed);

      if (cold.passes != opt.passes) {
        std::fprintf(stderr,
                     "FAIL %s @%d workers: warm-path tallies differ from the "
                     "no-blob baseline\n",
                     scenario.name, workers);
        ok = false;
      }
      if (reference_passes.empty()) reference_passes = opt.passes;
      if (opt.passes != reference_passes) {
        std::fprintf(stderr,
                     "FAIL %s @%d workers: tallies depend on worker count or "
                     "cache capacity\n",
                     scenario.name, workers);
        ok = false;
      }
      const double speedup = opt.samples_per_sec / cold.samples_per_sec;
      const double open_ratio =
          static_cast<double>(cold.session_opens) /
          static_cast<double>(std::max(1LL, opt.session_opens));
      // The baseline has no blob store, so every one of its opens is cold.
      const long long opt_cold = opt.session_opens - opt.warm_opens;
      const double cold_ratio = static_cast<double>(cold.session_opens) /
                                static_cast<double>(std::max(1LL, opt_cold));
      if (workers == 8 && speedup < 1.5) {
        std::fprintf(stderr,
                     "FAIL %s @8 workers: warm-path speedup %.2fx < 1.5x\n",
                     scenario.name, speedup);
        ok = false;
      }
      if (workers == 8 && scenario.gate_opens && cold_ratio < 3.0) {
        std::fprintf(stderr,
                     "FAIL %s @8 workers: cold session-open reduction %.2fx "
                     "< 3x (%lld -> %lld)\n",
                     scenario.name, cold_ratio, cold.session_opens, opt_cold);
        ok = false;
      }

      const double warm_share =
          opt.session_opens > 0
              ? static_cast<double>(opt.warm_opens) /
                    static_cast<double>(opt.session_opens)
              : 0.0;
      char pc[32], ba[32], sp[32], ws[32];
      std::snprintf(pc, sizeof(pc), "%.3g", cold.samples_per_sec);
      std::snprintf(ba, sizeof(ba), "%.3g", opt.samples_per_sec);
      std::snprintf(sp, sizeof(sp), "%.1fx", speedup);
      std::snprintf(ws, sizeof(ws), "%.0f%%", 100.0 * warm_share);
      table.add_row({scenario.name, std::to_string(workers), pc, ba, sp,
                     std::to_string(cold.session_opens),
                     std::to_string(opt.session_opens),
                     std::to_string(opt_cold), ws,
                     std::to_string(opt.steals)});
      char row[512];
      std::snprintf(
          row, sizeof(row),
          "%s{\"workload\":\"%s\",\"workers\":%d,\"candidates\":%d,"
          "\"baseline_sps\":%.1f,\"warm_sps\":%.1f,\"speedup\":%.2f,"
          "\"baseline_opens\":%lld,\"warm_path_opens\":%lld,"
          "\"open_ratio\":%.2f,"
          "\"cold_opens\":%lld,\"cold_ratio\":%.2f,"
          "\"warm_opens\":%lld,\"affinity_hits\":%lld,\"steals\":%lld,"
          "\"migrations\":%lld}",
          json_rows.empty() ? "" : ",", scenario.name, workers, num_candidates,
          cold.samples_per_sec, opt.samples_per_sec, speedup,
          cold.session_opens,
          opt.session_opens, open_ratio, opt_cold, cold_ratio, opt.warm_opens,
          opt.affinity_hits, opt.steals, opt.migrations);
      json_rows += row;
    }
  }
  table.print(std::cout,
              "no-blob vs warm-start EvalScheduler (" +
                  std::to_string(num_candidates) + " candidates)");
  std::cout << "gates: identical tallies, >=1.5x samples/sec @8 workers, "
               ">=3x fewer cold session opens (nominal re-measurements) on "
               "the eviction-heavy workload ("
            << (ok ? "ok" : "FAIL") << ")\n";

  if (!bench::write_bench_json(options.json, "bench_micro_warmpath",
                               "\"scenarios\":[" + json_rows + "]")) {
    return 1;
  }
  return ok ? 0 : 1;
}
