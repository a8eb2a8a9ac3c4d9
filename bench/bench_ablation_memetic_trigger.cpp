// Ablation: the memetic trigger interval (paper: NM local search after 5
// stagnant generations).  Sweeps the interval, including "never" (pure
// OO+AS+LHS) on example 1, reporting final yield and total simulations.
#include <cstdio>
#include <iostream>

#include "bench/bench_support.hpp"
#include "src/circuits/circuit_yield.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/summary.hpp"

int main(int argc, char** argv) {
  using namespace moheco;
  const BenchOptions options = bench::bench_prologue(
      argc, argv, "Ablation: memetic local-search trigger interval");
  circuits::CircuitYieldProblem problem(circuits::make_folded_cascode(),
                                        bench::eval_options(options));
  ThreadPool pool(options.threads);
  mc::EvalScheduler reference_scheduler(pool);

  Table table({"trigger (stagnant gens)", "avg reference yield", "avg sims",
               "avg generations"});
  std::string json_rows;
  for (int interval : {3, 5, 10, -1}) {
    stats::Welford yields, sims, gens;
    mc::SimBreakdown breakdown;
    for (int run = 0; run < options.runs; ++run) {
      core::MohecoOptions o = bench::base_options(options);
      o.seed = stats::derive_seed(options.seed, 0xAB1, run);
      if (interval < 0) {
        o.use_memetic = false;
      } else {
        o.local_search_stagnation = interval;
      }
      const core::MohecoResult r = core::MohecoOptimizer(problem, o).run();
      if (r.best.fitness.feasible) {
        yields.add(mc::reference_yield(problem, r.best.x,
                                       options.reference_samples, 77,
                                       reference_scheduler));
      }
      sims.add(static_cast<double>(r.total_simulations));
      gens.add(r.generations);
      breakdown += r.sim_breakdown;
    }
    char label[32], yld[32], cost[32], gen[32];
    std::snprintf(label, sizeof(label), "%s",
                  interval < 0 ? "never (OO only)"
                               : std::to_string(interval).c_str());
    if (yields.count() > 0) {
      std::snprintf(yld, sizeof(yld), "%.2f%%", 100.0 * yields.mean());
    } else {
      std::snprintf(yld, sizeof(yld), "n/a");
    }
    std::snprintf(cost, sizeof(cost), "%.0f", sims.mean());
    std::snprintf(gen, sizeof(gen), "%.1f", gens.mean());
    table.add_row({label, yld, cost, gen});

    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s{\"trigger\":%d,\"runs\":%d,\"avg_reference_yield\":%.4f,"
                  "\"avg_sims\":%.1f,\"avg_generations\":%.2f,\"sims\":",
                  json_rows.empty() ? "" : ",", interval, options.runs,
                  yields.count() > 0 ? yields.mean() : -1.0, sims.mean(),
                  gens.mean());
    json_rows += row;
    json_rows += mc::json_sim_breakdown(breakdown);
    json_rows += "}";
  }
  table.print(std::cout, "Example 1, " + std::to_string(options.runs) +
                             " runs per setting (paper uses interval 5)");
  if (!bench::write_bench_json(options.json, "bench_ablation_memetic_trigger",
                               "\"triggers\":[" + json_rows + "]")) {
    return 1;
  }
  return 0;
}
