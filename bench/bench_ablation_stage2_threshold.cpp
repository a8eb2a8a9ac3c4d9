// Ablation: the stage-2 promotion threshold (paper: estimated yield > 97%
// moves a candidate to the accurate n_max estimation).  Sweeps the
// threshold on example 1 and reports accuracy/cost.
#include <cstdio>
#include <iostream>

#include "bench/bench_support.hpp"
#include "src/circuits/circuit_yield.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/summary.hpp"

int main(int argc, char** argv) {
  using namespace moheco;
  const BenchOptions options = bench::bench_prologue(
      argc, argv, "Ablation: stage-2 promotion threshold");
  circuits::CircuitYieldProblem problem(circuits::make_folded_cascode(),
                                        bench::eval_options(options));
  ThreadPool pool(options.threads);

  Table table({"threshold", "avg deviation", "avg sims", "stage2 share"});
  std::string json_rows;
  for (double threshold : {0.90, 0.97, 0.995}) {
    stats::Welford deviations, sims;
    mc::SimBreakdown breakdown;
    for (int run = 0; run < options.runs; ++run) {
      core::MohecoOptions o = bench::base_options(options);
      o.seed = stats::derive_seed(options.seed, 0xAB2, run);
      o.estimation.stage2_threshold = threshold;
      const core::MohecoResult r = core::MohecoOptimizer(problem, o).run();
      sims.add(static_cast<double>(r.total_simulations));
      breakdown += r.sim_breakdown;
      if (!r.best.fitness.feasible) continue;  // no yield to compare
      const double reference = mc::reference_yield(
          problem, r.best.x, options.reference_samples, 78, pool);
      deviations.add(std::fabs(r.best.fitness.yield - reference));
    }
    char t[32], d[32], s[32], s2[32];
    std::snprintf(t, sizeof(t), "%.1f%%", 100.0 * threshold);
    if (deviations.count() > 0) {
      std::snprintf(d, sizeof(d), "%.2f%%", 100.0 * deviations.mean());
    } else {
      std::snprintf(d, sizeof(d), "n/a");
    }
    std::snprintf(s, sizeof(s), "%.0f", sims.mean());
    std::snprintf(s2, sizeof(s2), "%.1f%%",
                  breakdown.total() > 0
                      ? 100.0 * breakdown.stage2 / breakdown.total()
                      : 0.0);
    table.add_row({t, d, s, s2});
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s{\"threshold\":%.3f,\"avg_deviation\":%.6f,"
                  "\"avg_sims\":%.1f,\"sims\":",
                  json_rows.empty() ? "" : ",", threshold,
                  deviations.count() > 0 ? deviations.mean() : -1.0,
                  sims.mean());
    json_rows += row;
    json_rows += mc::json_sim_breakdown(breakdown);
    json_rows += "}";
  }
  table.print(std::cout, "Example 1, " + std::to_string(options.runs) +
                             " runs per setting (paper uses 97%)");
  if (!bench::write_bench_json(options.json, "bench_ablation_stage2_threshold",
                               "\"thresholds\":[" + json_rows + "]")) {
    return 1;
  }
  return 0;
}
