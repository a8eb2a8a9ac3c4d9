#include "bench/bench_support.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "src/common/log.hpp"
#include "src/obs/build_info.hpp"
#include "src/common/parallel.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/summary.hpp"

namespace moheco::bench {
namespace {

MethodSpec fixed_budget_method(const std::string& name, int budget) {
  return {name, [budget](core::MohecoOptions& o) {
            o.use_ocba = false;
            o.use_memetic = false;
            o.fixed_budget = budget;
          }};
}

}  // namespace

std::vector<MethodSpec> example1_methods() {
  return {
      fixed_budget_method("300 simulations (AS+LHS)", 300),
      fixed_budget_method("500 simulations (AS+LHS)", 500),
      fixed_budget_method("700 simulations (AS+LHS)", 700),
      {"OO+AS+LHS", [](core::MohecoOptions& o) { o.use_memetic = false; }},
      {"MOHECO", [](core::MohecoOptions&) {}},
  };
}

std::vector<MethodSpec> example2_methods() {
  return {
      fixed_budget_method("300 simulations (AS+LHS)", 300),
      fixed_budget_method("500 simulations (AS+LHS)", 500),
      {"MOHECO", [](core::MohecoOptions&) {}},
  };
}

core::MohecoOptions base_options(const BenchOptions& bench) {
  core::MohecoOptions options;
  // Paper settings: population 50, CR 0.8, F 0.8, n0 = 15, sim_avg = 35,
  // n_max = 500, stop at 100% yield or 20 stagnant generations.
  options.population = bench.scale == BenchScale::kFull ? 50 : 24;
  options.max_generations = bench.scale == BenchScale::kFull ? 200 : 80;
  options.threads = bench.threads;
  return options;
}

circuits::EvalOptions eval_options(const BenchOptions& bench) {
  circuits::EvalOptions options;
  options.transient = bench.transient;
  return options;
}

StudyData run_example_study(const std::string& study_key,
                            const mc::YieldProblem& problem,
                            const std::vector<MethodSpec>& methods,
                            const BenchOptions& bench) {
  ResultsCache cache = ResultsCache::default_cache();
  const std::string key = study_key + "_" + describe(bench);
  StudyData data;
  if (auto cached = cache.load(key)) {
    bool complete = true;
    for (const MethodSpec& m : methods) {
      if (!cached->count("dev:" + m.name) || !cached->count("sims:" + m.name)) {
        complete = false;
        break;
      }
    }
    if (complete) {
      for (const MethodSpec& m : methods) {
        data.deviations[m.name] = cached->at("dev:" + m.name);
        data.simulations[m.name] = cached->at("sims:" + m.name);
      }
      std::fprintf(stderr, "[bench] loaded study '%s' from cache\n",
                   key.c_str());
      return data;
    }
  }

  // One scheduler for every reference run of the study: repeated estimates
  // of the same design point (across methods or runs) revive their sessions
  // from the warm-start blob store instead of re-running the nominal
  // measurement.
  ThreadPool reference_pool(bench.threads);
  mc::EvalScheduler reference_scheduler(reference_pool);
  for (const MethodSpec& method : methods) {
    std::vector<double> deviations, simulations;
    for (int run = 0; run < bench.runs; ++run) {
      core::MohecoOptions options = base_options(bench);
      options.seed = stats::derive_seed(bench.seed, 0xB, run);
      method.configure(options);
      core::MohecoOptimizer optimizer(problem, options);
      const core::MohecoResult result = optimizer.run();
      double deviation = 1.0;
      if (result.best.fitness.feasible) {
        const double reference = mc::reference_yield(
            problem, result.best.x, bench.reference_samples,
            stats::derive_seed(bench.seed, 0xFEF, run), reference_scheduler);
        deviation = std::fabs(result.best.fitness.yield - reference);
      }
      deviations.push_back(deviation);
      simulations.push_back(static_cast<double>(result.total_simulations));
      std::fprintf(stderr,
                   "[bench] %-26s run %d: yield %.4f dev %.4f sims %lld\n",
                   method.name.c_str(), run, result.best.fitness.yield,
                   deviation, result.total_simulations);
    }
    data.deviations[method.name] = std::move(deviations);
    data.simulations[method.name] = std::move(simulations);
  }

  ResultMap to_store;
  for (const MethodSpec& m : methods) {
    to_store["dev:" + m.name] = data.deviations[m.name];
    to_store["sims:" + m.name] = data.simulations[m.name];
  }
  cache.store(key, to_store);
  return data;
}

void print_accuracy_table(const StudyData& data,
                          const std::vector<MethodSpec>& methods,
                          const std::string& title) {
  Table table({"methods", "best", "worst", "average", "variance"});
  for (const MethodSpec& m : methods) {
    const stats::Summary s = stats::summarize(data.deviations.at(m.name));
    table.add_row({m.name, format_percent(s.best), format_percent(s.worst),
                   format_percent(s.mean), format_sig(s.variance, 2)});
  }
  table.print(std::cout, title);
}

void print_cost_table(const StudyData& data,
                      const std::vector<MethodSpec>& methods,
                      const std::string& title) {
  Table table({"methods", "best", "worst", "average", "variance",
               "vs AS+LHS@500"});
  double baseline = 0.0;
  for (const MethodSpec& m : methods) {
    if (m.name.find("500") != std::string::npos) {
      baseline = stats::summarize(data.simulations.at(m.name)).mean;
    }
  }
  for (const MethodSpec& m : methods) {
    const stats::Summary s = stats::summarize(data.simulations.at(m.name));
    char ratio[64] = "-";
    if (baseline > 0.0) {
      std::snprintf(ratio, sizeof(ratio), "%.2f%% (1/%.1f)",
                    100.0 * s.mean / baseline, baseline / s.mean);
    }
    table.add_row({m.name, format_sig(s.best, 6), format_sig(s.worst, 6),
                   format_sig(s.mean, 6), format_sig(s.variance, 2), ratio});
  }
  table.print(std::cout, title);
}

BenchOptions bench_prologue(int argc, char** argv, const std::string& name) {
  BenchOptions options;
  try {
    options = parse_bench_options(argc, argv);
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
    std::exit(2);
  }
  std::cout << "=== " << name << " (" << describe(options) << ") ===\n";
  if (options.scale != BenchScale::kFull) {
    std::cout << "note: scaled-down protocol; set MOHECO_SCALE=full for the "
                 "paper-scale protocol (10 runs, 50k reference MC)\n";
  }
  return options;
}

bool write_bench_json(const std::string& path, const std::string& bench,
                      const std::string& body) {
  if (path.empty()) return true;
  std::ofstream out(path);
  // The build identity header pins which binary produced the numbers
  // (version, compiler) for artifact forensics.
  out << "{\"" << bench << "\":{\"build\":" << obs::build_json() << ","
      << body << "}}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace moheco::bench
