// Ablation: LHS vs primitive MC (the DOE speedup of Section 2.1).
// Measures the standard deviation of the yield estimator at equal sample
// counts on a fixed example-1 design point.  All reference runs go through
// one EvalScheduler, so repeated estimates of the same design point reuse
// cached sessions (or revive them from the warm-start blob store).
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
      argc, argv, "Ablation: LHS vs PMC yield-estimator variance");
  circuits::CircuitYieldProblem problem(circuits::make_folded_cascode(),
                                        bench::eval_options(options));
  ThreadPool pool(options.threads);
  mc::EvalScheduler scheduler(pool);
  mc::SimCounter sims;
  // Find a genuinely marginal design (partial yield) by sweeping the bias
  // current of the known-good sizing downwards; the estimator variance is
  // invisible at yield 0 or 1.
  std::vector<double> x = {260e-6, 105e-6, 160e-6, 160e-6, 100e-6,
                           0.7e-6, 0.5e-6, 1.0e-6, 38e-6,  4.6, 1.9};
  for (double ibias = 38e-6; ibias > 5e-6; ibias -= 2e-6) {
    x[8] = ibias;
    const double y = mc::reference_yield(problem, x, 400, 5, scheduler,
                                         stats::SamplingMethod::kPMC, &sims);
    if (y > 0.30 && y < 0.90) break;
  }
  const int reps = options.scale == BenchScale::kFull ? 60 : 25;

  Table table({"samples", "PMC std dev", "LHS std dev", "variance ratio"});
  std::string json_rows;
  for (long long n : {50LL, 100LL, 300LL}) {
    stats::Welford pmc, lhs;
    const mc::SimBreakdown before = sims.breakdown();
    for (int rep = 0; rep < reps; ++rep) {
      pmc.add(mc::reference_yield(problem, x, n,
                                  stats::derive_seed(options.seed, 1, rep),
                                  scheduler, stats::SamplingMethod::kPMC,
                                  &sims));
      lhs.add(mc::reference_yield(problem, x, n,
                                  stats::derive_seed(options.seed, 2, rep),
                                  scheduler, stats::SamplingMethod::kLHS,
                                  &sims));
    }
    char p[32], l[32], r[32];
    std::snprintf(p, sizeof(p), "%.4f", std::sqrt(pmc.variance()));
    std::snprintf(l, sizeof(l), "%.4f", std::sqrt(lhs.variance()));
    std::snprintf(r, sizeof(r), "%.2fx",
                  lhs.variance() > 0 ? pmc.variance() / lhs.variance() : 0.0);
    table.add_row({std::to_string(n), p, l, r});

    mc::SimBreakdown row_sims = sims.breakdown();
    row_sims.screen -= before.screen;
    row_sims.stage1 -= before.stage1;
    row_sims.ocba -= before.ocba;
    row_sims.stage2 -= before.stage2;
    row_sims.other -= before.other;
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s{\"samples\":%lld,\"reps\":%d,\"pmc_std\":%.6f,"
                  "\"lhs_std\":%.6f,\"variance_ratio\":%.4f,\"sims\":",
                  json_rows.empty() ? "" : ",", n, reps,
                  std::sqrt(pmc.variance()), std::sqrt(lhs.variance()),
                  lhs.variance() > 0 ? pmc.variance() / lhs.variance() : 0.0);
    json_rows += row;
    json_rows += mc::json_sim_breakdown(row_sims);
    json_rows += "}";
  }
  table.print(std::cout, "Yield-estimator spread over " +
                             std::to_string(reps) + " repetitions");
  std::cout << "expected: LHS variance at or below PMC (Stein 1987)\n";
  if (!bench::write_bench_json(options.json, "bench_ablation_sampler",
                               "\"sample_counts\":[" + json_rows + "]")) {
    return 1;
  }
  return 0;
}
