// Shared harness for the table/figure benches.
//
// The paper's protocol (Section 3.1): run each method several times with
// independent random streams, record (a) the deviation of the reported
// yield from a large reference-MC estimate at the same design point and
// (b) the total number of simulations, then tabulate best/worst/average/
// variance.  Tables 1+2 and Fig. 6 share one study per example, so results
// are memoized in the results cache keyed by (study, scale, seed).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/circuits/evaluator.hpp"
#include "src/common/options.hpp"
#include "src/common/results_cache.hpp"
#include "src/common/table.hpp"
#include "src/core/moheco.hpp"
#include "src/mc/yield_problem.hpp"

namespace moheco::bench {

/// One method row of Tables 1-4.
struct MethodSpec {
  std::string name;
  /// Mutates the base options into this method's configuration.
  std::function<void(core::MohecoOptions&)> configure;
};

/// The paper's method set for example 1 (rows of Tables 1 and 2).
std::vector<MethodSpec> example1_methods();
/// The paper's method set for example 2 (rows of Tables 3 and 4).
std::vector<MethodSpec> example2_methods();

/// Base optimizer options at a given bench scale (population 50 at full
/// scale as in the paper, smaller otherwise).
core::MohecoOptions base_options(const BenchOptions& bench);

/// Circuit-evaluation options implied by the bench flags: --transient turns
/// on the step-bench transient per sample, which also registers the
/// topology's slew-rate / settling-time specs in the yield criterion.
circuits::EvalOptions eval_options(const BenchOptions& bench);

struct StudyData {
  /// method name -> per-run |reported - reference| yield deviations.
  ResultMap deviations;
  /// method name -> per-run total simulation counts.
  ResultMap simulations;
};

/// Runs (or loads from cache) the full per-example study: every method,
/// `bench.runs` independent runs, reference-MC deviation per run.
StudyData run_example_study(const std::string& study_key,
                            const mc::YieldProblem& problem,
                            const std::vector<MethodSpec>& methods,
                            const BenchOptions& bench);

/// Prints a Tables-1/3-style accuracy table (best/worst/average/variance of
/// the deviations).
void print_accuracy_table(const StudyData& data,
                          const std::vector<MethodSpec>& methods,
                          const std::string& title);
/// Prints a Tables-2/4-style cost table plus the budget ratios vs the
/// 500-simulation baseline.
void print_cost_table(const StudyData& data,
                      const std::vector<MethodSpec>& methods,
                      const std::string& title);

/// Standard bench prologue: parses options, prints the header.  Returns
/// std::nullopt (and prints usage) when --help was requested.
BenchOptions bench_prologue(int argc, char** argv, const std::string& name);

/// JSON object fragment for a per-phase simulation breakdown:
/// {"screen":N,"stage1":N,"ocba":N,"stage2":N,"other":N,"total":N}.
std::string json_sim_breakdown(const mc::SimBreakdown& breakdown);

/// Writes `body` (a JSON object's contents, without the outer braces) to
/// `path` wrapped as {"<bench>":{"build":{...},<body>}}, the build object
/// being obs::build_json().  No-op when path is empty;
/// returns false (and warns on stderr) when the write fails.
bool write_bench_json(const std::string& path, const std::string& bench,
                      const std::string& body);

}  // namespace moheco::bench
