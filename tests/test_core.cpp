#include <gtest/gtest.h>

#include <cmath>

#include "src/core/moheco.hpp"
#include "src/mc/synthetic.hpp"

namespace moheco::core {
namespace {

// Small, fast synthetic problem: optimum (yield -> 1) at the origin.
mc::QuadraticYieldProblem make_problem() {
  return mc::QuadraticYieldProblem(3, 6, 1.0, 0.25, 2.0);
}

MohecoOptions fast_options(std::uint64_t seed) {
  MohecoOptions options;
  options.population = 12;
  options.estimation.n0 = 10;
  options.estimation.sim_avg = 25;
  options.estimation.n_max = 150;
  options.max_generations = 60;
  options.stop_stagnation = 15;
  options.threads = 4;
  options.seed = seed;
  return options;
}

TEST(Moheco, FindsHighYieldRegion) {
  const auto problem = make_problem();
  MohecoOptimizer optimizer(problem, fast_options(1));
  const MohecoResult result = optimizer.run();
  ASSERT_TRUE(result.best.fitness.feasible);
  // True yield at the found design must be high (the optimum has
  // Phi(1/0.25) ~ 0.99997).
  EXPECT_GT(problem.true_yield(result.best.x), 0.97);
  EXPECT_GT(result.best.fitness.yield, 0.97);
  EXPECT_GT(result.total_simulations, 0);
  EXPECT_FALSE(result.trace.empty());
}

TEST(Moheco, YieldIsMonotoneOverTraceBest) {
  const auto problem = make_problem();
  MohecoOptimizer optimizer(problem, fast_options(2));
  const MohecoResult result = optimizer.run();
  double prev = -1.0;
  for (const auto& g : result.trace) {
    if (!g.best_feasible) continue;
    EXPECT_GE(g.best_yield + 1e-12, prev);
    prev = std::max(prev, g.best_yield);
  }
}

TEST(Moheco, TraceAccountsSimulations) {
  const auto problem = make_problem();
  MohecoOptimizer optimizer(problem, fast_options(3));
  const MohecoResult result = optimizer.run();
  long long prev = 0;
  for (const auto& g : result.trace) {
    EXPECT_GE(g.sims_cumulative, prev);
    prev = g.sims_cumulative;
  }
  EXPECT_GE(result.total_simulations, prev);
}

TEST(Moheco, DeterministicForSeed) {
  const auto problem = make_problem();
  const MohecoResult a = MohecoOptimizer(problem, fast_options(7)).run();
  MohecoOptions options4 = fast_options(7);
  options4.threads = 2;  // thread count must not change the outcome
  const MohecoResult b = MohecoOptimizer(problem, options4).run();
  ASSERT_EQ(a.best.x.size(), b.best.x.size());
  for (std::size_t i = 0; i < a.best.x.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.best.x[i], b.best.x[i]);
  }
  EXPECT_EQ(a.total_simulations, b.total_simulations);
  EXPECT_EQ(a.best.samples, b.best.samples);
}

TEST(Moheco, OcbaUsesFewerSimsThanFixedBudget) {
  // Harder noise (max yield ~89%, below the 97% stage-2 threshold) so the
  // stage-1 OCBA budget dominates; compare the budget over a fixed number
  // of generations.
  const mc::QuadraticYieldProblem problem(3, 6, 1.0, 0.8, 2.0);
  MohecoOptions moheco_options = fast_options(11);
  // Isolate the budget-allocation effect: no local search in either run
  // (its payoff -- fewer generations to converge -- is measured end-to-end
  // by the benches, as in the paper).
  moheco_options.use_memetic = false;
  moheco_options.max_generations = 6;
  const MohecoResult moheco = MohecoOptimizer(problem, moheco_options).run();

  MohecoOptions fixed_options = fast_options(11);
  fixed_options.use_ocba = false;
  fixed_options.use_memetic = false;
  fixed_options.fixed_budget = 150;
  fixed_options.max_generations = 6;
  const MohecoResult fixed = MohecoOptimizer(problem, fixed_options).run();

  ASSERT_TRUE(moheco.best.fitness.feasible);
  ASSERT_TRUE(fixed.best.fitness.feasible);
  // Substantially lower simulation cost at the same generation count
  // (paper: ~1/7 over full runs).
  EXPECT_LT(moheco.total_simulations, fixed.total_simulations);
}

TEST(Moheco, BaselineConfigurationsRun) {
  const auto problem = make_problem();
  // OO + AS + LHS (no memetic operators).
  MohecoOptions oo = fast_options(21);
  oo.use_memetic = false;
  const MohecoResult oo_result = MohecoOptimizer(problem, oo).run();
  EXPECT_TRUE(oo_result.best.fitness.feasible);
  // AS + PMC fixed budget.
  MohecoOptions pmc = fast_options(22);
  pmc.use_ocba = false;
  pmc.use_memetic = false;
  pmc.fixed_budget = 100;
  pmc.estimation.mc.sampling = stats::SamplingMethod::kPMC;
  const MohecoResult pmc_result = MohecoOptimizer(problem, pmc).run();
  EXPECT_TRUE(pmc_result.best.fitness.feasible);
}

TEST(Moheco, ReportedBestHasAccurateSampleCount) {
  const auto problem = make_problem();
  MohecoOptions options = fast_options(31);
  const MohecoResult result = MohecoOptimizer(problem, options).run();
  ASSERT_TRUE(result.best.fitness.feasible);
  EXPECT_GE(result.best.samples, options.estimation.n_max);
}

TEST(Moheco, MaxGenerationsCapsTheRun) {
  const auto problem = make_problem();
  MohecoOptions options = fast_options(41);
  options.max_generations = 2;
  const MohecoResult result = MohecoOptimizer(problem, options).run();
  EXPECT_LE(result.generations, 2);
  EXPECT_EQ(result.trace.size(), 3u);  // init + 2 generations
}

TEST(Moheco, InfeasibleStartStillProgresses) {
  // Tiny feasible region: most random candidates are infeasible at nominal;
  // constraint-violation descent must still find it.
  const mc::QuadraticYieldProblem problem(3, 6, 0.09, 0.05, 2.0);
  MohecoOptions options = fast_options(51);
  options.max_generations = 80;
  options.stop_stagnation = 25;
  const MohecoResult result = MohecoOptimizer(problem, options).run();
  ASSERT_TRUE(result.best.fitness.feasible);
  EXPECT_GT(problem.true_yield(result.best.x), 0.8);
}

TEST(Moheco, RejectsTinyPopulation) {
  const auto problem = make_problem();
  MohecoOptions options = fast_options(61);
  options.population = 3;
  EXPECT_THROW(MohecoOptimizer(problem, options), InvalidArgument);
}

}  // namespace
}  // namespace moheco::core
