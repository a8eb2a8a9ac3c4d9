// Fig. 3 of the paper: how OCBA distributes one generation's budget across
// a typical population.  Candidates with yield > 70% received 55% of the
// simulations while being 36% of the population; candidates with yield
// < 40% received only 13% while being 30% of the population; the total was
// ~11% of what AS+LHS@500 spends on the same population.
#include <cstdio>
#include <iostream>

#include "bench/bench_support.hpp"
#include "src/circuits/circuit_yield.hpp"

int main(int argc, char** argv) {
  using namespace moheco;
  const BenchOptions options = bench::bench_prologue(
      argc, argv, "Fig. 3: OCBA budget allocation in one typical population");
  circuits::CircuitYieldProblem problem(circuits::make_folded_cascode(),
                                        bench::eval_options(options));

  // Run a few generations so the population contains a spread of yields,
  // then inspect the last generation's estimation bookkeeping.
  core::MohecoOptions moheco_options = bench::base_options(options);
  moheco_options.seed = options.seed;
  moheco_options.use_memetic = false;
  moheco_options.max_generations = 30;
  core::MohecoOptimizer optimizer(problem, moheco_options);
  const core::MohecoResult result = optimizer.run();

  // Pick the generation with the most estimated candidates ("typical").
  const core::GenerationTrace* typical = nullptr;
  for (const auto& g : result.trace) {
    if (typical == nullptr || g.estimated.size() > typical->estimated.size()) {
      typical = &g;
    }
  }
  if (typical == nullptr || typical->estimated.empty()) {
    std::cout << "no feasible candidates encountered; rerun with another "
                 "--seed\n";
    return 0;
  }

  struct Band {
    const char* label;
    double lo, hi;
    int count = 0;
    long long sims = 0;
  };
  Band bands[] = {{"yield > 70%", 0.70, 1.01},
                  {"40% <= yield <= 70%", 0.40, 0.70},
                  {"yield < 40%", -0.01, 0.40}};
  long long total_sims = 0;
  for (const auto& [mean, samples] : typical->estimated) {
    total_sims += samples;
    for (Band& band : bands) {
      if (mean >= band.lo && mean < band.hi) {
        ++band.count;
        band.sims += samples;
        break;
      }
    }
  }
  const auto population = static_cast<int>(typical->estimated.size());

  Table table({"candidate band", "% of population", "% of simulations",
               "avg sims/candidate"});
  for (const Band& band : bands) {
    char pop[32], sims[32], avg[32];
    std::snprintf(pop, sizeof(pop), "%.0f%%",
                  100.0 * band.count / population);
    std::snprintf(sims, sizeof(sims), "%.0f%%",
                  total_sims > 0 ? 100.0 * band.sims / total_sims : 0.0);
    std::snprintf(avg, sizeof(avg), "%.1f",
                  band.count > 0 ? static_cast<double>(band.sims) / band.count
                                 : 0.0);
    table.add_row({band.label, pop, sims, avg});
  }
  table.print(std::cout, "OCBA allocation over the estimated population "
                         "(generation " +
                             std::to_string(typical->generation) + ", " +
                             std::to_string(population) + " candidates)");

  const long long as_lhs_500 = 500LL * population;
  std::printf("total simulations: %lld = %.1f%% of AS+LHS@500 on the same "
              "population (%lld)\n",
              total_sims, 100.0 * total_sims / as_lhs_500, as_lhs_500);
  std::printf("paper: y>70%%: 36%% of pop / 55%% of sims; y<40%%: 30%% of pop "
              "/ 13%% of sims; total ~11%% of AS+LHS\n");
  return 0;
}
