// Cross-module integration tests: the full MOHECO pipeline on real
// circuits, estimator consistency between layers, and trace semantics.
#include <gtest/gtest.h>

#include <cmath>

#include "src/circuits/circuit_yield.hpp"
#include "src/core/moheco.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/mc/ocba.hpp"
#include "src/mc/synthetic.hpp"

namespace moheco {
namespace {

core::MohecoOptions ota_options(std::uint64_t seed) {
  core::MohecoOptions options;
  options.population = 16;
  options.max_generations = 25;
  options.stop_stagnation = 10;
  options.seed = seed;
  return options;
}

TEST(Integration, MohecoImprovesOtaYield) {
  circuits::CircuitYieldProblem problem(
      circuits::make_five_transistor_ota());
  core::MohecoOptimizer optimizer(problem, ota_options(5));
  const core::MohecoResult result = optimizer.run();
  ASSERT_TRUE(result.best.fitness.feasible);
  EXPECT_GT(result.best.fitness.yield, 0.9);
  // Reported yield must agree with an independent reference within MC noise
  // (3 sigma of a 500-sample binomial at the reported value, floored).
  ThreadPool pool(8);
  const double reference =
      mc::reference_yield(problem, result.best.x, 10000, 31, pool);
  const double sigma = std::sqrt(std::max(
      reference * (1.0 - reference) / 500.0, 1e-6));
  EXPECT_NEAR(result.best.fitness.yield, reference,
              std::max(3.0 * sigma, 0.02));
}

TEST(Integration, TraceSimCountMatchesTotal) {
  circuits::CircuitYieldProblem problem(
      circuits::make_five_transistor_ota());
  core::MohecoOptimizer optimizer(problem, ota_options(6));
  const core::MohecoResult result = optimizer.run();
  ASSERT_FALSE(result.trace.empty());
  // The last trace entry's cumulative count can only be below the final
  // total by the final accurate re-estimation.
  const long long last = result.trace.back().sims_cumulative;
  EXPECT_LE(last, result.total_simulations);
  EXPECT_GE(result.total_simulations - last,
            0);
}

TEST(Integration, OcbaPoolContainsParentsAfterFirstGeneration) {
  // A problem whose maximum yield (~89%) is below 100%, so the run cannot
  // stop after a single lucky generation.
  const mc::QuadraticYieldProblem problem(3, 6, 1.0, 0.8, 2.0);
  core::MohecoOptimizer optimizer(problem, ota_options(7));
  const core::MohecoResult result = optimizer.run();
  // Once the population holds feasible members, later generations estimate
  // more candidates than the new-trial count alone (parents stay in the
  // OCBA pool).
  bool parents_seen = false;
  for (std::size_t g = 1; g < result.trace.size(); ++g) {
    if (static_cast<int>(result.trace[g].estimated.size()) >
        result.trace[g].num_feasible_trials) {
      parents_seen = true;
    }
  }
  ASSERT_TRUE(result.best.fitness.feasible);
  EXPECT_TRUE(parents_seen);
}

TEST(Integration, StageTwoPromotionReachesNmax) {
  // Any (feasible) reported best must carry at least n_max samples.
  circuits::CircuitYieldProblem problem(
      circuits::make_five_transistor_ota());
  core::MohecoOptions options = ota_options(8);
  options.estimation.n_max = 300;
  core::MohecoOptimizer optimizer(problem, options);
  const core::MohecoResult result = optimizer.run();
  ASSERT_TRUE(result.best.fitness.feasible);
  EXPECT_GE(result.best.samples, 300);
}

TEST(Integration, PmcSamplingAlsoWorksEndToEnd) {
  circuits::CircuitYieldProblem problem(
      circuits::make_five_transistor_ota());
  core::MohecoOptions options = ota_options(9);
  options.estimation.mc.sampling = stats::SamplingMethod::kPMC;
  const core::MohecoResult result =
      core::MohecoOptimizer(problem, options).run();
  EXPECT_TRUE(result.best.fitness.feasible);
  EXPECT_GT(result.best.fitness.yield, 0.8);
}

TEST(Integration, FeasibleCandidatesGetViolationZero) {
  circuits::CircuitYieldProblem problem(
      circuits::make_five_transistor_ota());
  core::MohecoOptions options = ota_options(10);
  options.max_generations = 2;
  const core::MohecoResult result =
      core::MohecoOptimizer(problem, options).run();
  for (const auto& g : result.trace) {
    for (const auto& [yield, samples] : g.estimated) {
      EXPECT_GE(yield, 0.0);
      EXPECT_LE(yield, 1.0);
      EXPECT_GT(samples, 0);
    }
  }
}

TEST(Integration, CircuitCandidateYieldAgreesWithReference) {
  // CandidateYield's incremental tally must converge to reference_yield's
  // batch estimate on the same problem/design.
  circuits::CircuitYieldProblem problem(
      circuits::make_five_transistor_ota());
  const std::vector<double> x = {60e-6, 40e-6, 20e-6, 0.7e-6, 0.85};
  ThreadPool pool(8);
  mc::EvalScheduler scheduler(pool);
  mc::SimCounter sims;
  mc::CandidateYield tally(problem, x, 77);
  scheduler.refine(tally, 4000, sims, mc::McOptions{});
  const double reference = mc::reference_yield(problem, x, 8000, 78, pool);
  EXPECT_NEAR(tally.mean(), reference, 0.03);
}

}  // namespace
}  // namespace moheco
