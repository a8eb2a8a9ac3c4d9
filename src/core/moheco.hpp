// MOHECO: Memetic Ordinal-Optimization-based Hybrid Evolutionary
// Constrained Optimization (Liu, Fernandez, Gielen, DATE 2010).
//
// One configurable optimizer implements the paper's algorithm and both of
// its MC-based comparison methods:
//   - MOHECO            : use_ocba = true,  use_memetic = true
//   - OO + AS + LHS     : use_ocba = true,  use_memetic = false
//   - AS + LHS @ N sims : use_ocba = false (fixed_budget = N), memetic off
// Sampling (LHS vs PMC), population parameters and the estimation constants
// (n0 = 15, sim_avg = 35, n_max = 500, 97% stage-2 threshold) follow the
// paper's Section 3 settings by default.
//
// Flow per generation (Fig. 4 of the paper):
//   select base vector (population best) -> DE mutation + crossover ->
//   nominal feasibility screen (acceptance sampling) -> stage-1 OCBA yield
//   estimation (or fixed budget) with stage-2 promotion above 97% ->
//   Deb-rule one-to-one selection -> optional Nelder-Mead local search on
//   the best member after 5 stagnant generations -> stop at 100% reported
//   yield or 20 stagnant generations.
//
// Scheduling: each phase of a generation (screens, stage-1 pilots, every
// OCBA round, stage-2 promotion) runs as one job set on the run's
// EvalScheduler, whose sticky candidate->worker affinity and warm-start
// blob store keep hot candidates' evaluator sessions warm across rounds
// and generations (see src/mc/eval_scheduler.hpp).  A generation's stage-2
// batches land before it ends, so no work is pending between generations;
// Deb selection compares the stage-1/OCBA estimates, and the stage-2
// samples reach the members' fitness when the next generation's OCBA pool
// is assembled.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/mc/ocba.hpp"
#include "src/mc/sim_counter.hpp"
#include "src/mc/yield_problem.hpp"
#include "src/opt/constraint.hpp"
#include "src/opt/de.hpp"

namespace moheco::core {

struct MohecoOptions {
  int population = 50;            ///< paper: 50
  opt::DeConfig de;               ///< paper: F = 0.8, CR = 0.8, DE/best/1
  mc::TwoStageOptions estimation; ///< n0 = 15, sim_avg = 35, n_max = 500
  bool use_ocba = true;
  bool use_memetic = true;
  /// Per-feasible-candidate MC sample count when use_ocba is false
  /// (the AS+LHS / AS+PMC baselines of Tables 1-4).
  int fixed_budget = 500;
  /// Trigger NM local search after this many generations without
  /// improvement of the best yield (paper: 5).
  int local_search_stagnation = 5;
  int nm_max_iterations = 10;     ///< paper: "about 10 iterations"
  /// Stop after this many generations without improvement (paper: 20).
  int stop_stagnation = 20;
  int max_generations = 200;
  int threads = 0;                ///< MC worker threads; 0 = hardware
  /// Generation-wide evaluation scheduler knobs (per-worker session-cache
  /// capacity, warm-start blob store).  The optimizer owns one
  /// EvalScheduler for its whole run, so session caches persist across
  /// generations.
  mc::SchedulerOptions scheduler;
  std::uint64_t seed = 1;
  /// Crash-safe checkpointing: when non-empty, the optimizer writes its
  /// full generation-granular state (population, tallies, RNG streams,
  /// counters, warm-blob store) into this directory after every generation,
  /// each file landing via atomic temp-file + rename.  Writing a checkpoint
  /// leaves the scheduler's caches as they are, so the result is the same
  /// as a non-checkpointed run's (at one thread, even with fail points
  /// armed).
  std::string checkpoint_dir;
  /// With `resume`, run() first tries to load `checkpoint_dir`'s state and
  /// continues from the last completed generation; the final result is
  /// bit-identical to the uninterrupted run at any thread count (fail
  /// points disarmed).  A missing checkpoint starts fresh; a
  /// checkpoint from a different problem/options shape throws.
  bool resume = false;
  /// Cooperative cancellation hook, polled at generation boundaries (no
  /// evaluation work is pending there).  When it returns true the run
  /// stops early: the current best is reported without the final accurate
  /// refinement, and MohecoResult::cancelled is set.  Null (the default)
  /// never cancels.  The serving daemon points this at the job's cancel
  /// flag.
  std::function<bool()> should_stop;
};

/// One population member's bookkeeping.  Feasible members keep their MC
/// tally alive across generations: the ordinal-optimization stage treats
/// the whole current population as the candidate set, so surviving parents
/// keep accumulating samples whenever the OCBA rule judges them worth
/// refining.  This also removes the maximization bias a frozen noisy
/// estimate of the best member would otherwise inject.  Evaluator sessions
/// are not pinned here: they live in the optimizer's EvalScheduler caches,
/// bounded by the session-cache capacity rather than by population size.
struct Member {
  std::vector<double> x;
  opt::Fitness fitness;
  long long samples = 0;  ///< MC samples behind fitness.yield
  std::shared_ptr<mc::CandidateYield> tally;  ///< null for infeasible members
};

/// Per-generation record (drives Fig. 3, the convergence plots and the
/// Section 3.4 response-surface study).
struct GenerationTrace {
  int generation = 0;
  double best_yield = 0.0;
  bool best_feasible = false;
  long long sims_cumulative = 0;
  int num_feasible_trials = 0;
  bool local_search_triggered = false;
  /// (yield estimate, sample count) of every feasible candidate that was
  /// MC-estimated this generation -- the OCBA allocation picture.
  std::vector<std::pair<double, long long>> estimated;
  /// (x, yield estimate) pairs for response-surface training data.
  std::vector<std::pair<std::vector<double>, double>> data_points;
};

struct MohecoResult {
  Member best;
  long long total_simulations = 0;
  /// Per-phase split of total_simulations (screen / stage-1 / OCBA rounds /
  /// stage-2 / other), for the ablation benches' budget accounting.
  mc::SimBreakdown sim_breakdown;
  /// Candidates quarantined by the fault-containment layer, split by where
  /// the failure surfaced (session open / estimation / screen).  All zero
  /// on a healthy run.
  mc::FailBreakdown fail_breakdown;
  int generations = 0;
  bool reached_full_yield = false;
  /// True when MohecoOptions::should_stop ended the run early; `best` is
  /// the best member found so far (skipping the final n_report refinement).
  bool cancelled = false;
  std::vector<GenerationTrace> trace;
};

class MohecoOptimizer {
 public:
  MohecoOptimizer(const mc::YieldProblem& problem, MohecoOptions options);

  /// Borrowing constructor: runs on a caller-owned scheduler (and its
  /// thread pool) instead of constructing one per optimizer.  The serving
  /// daemon multiplexes every deck job onto ONE shared pool this way, so
  /// recurring decks find the scheduler's warm state.  `options.threads`
  /// is ignored; the caller must not touch `scheduler` while run() is in
  /// flight, and owns purging problem-specific state afterwards
  /// (EvalScheduler::forget_problem) if the problem outlives the run.
  MohecoOptimizer(const mc::YieldProblem& problem, MohecoOptions options,
                  mc::EvalScheduler& scheduler);

  /// Runs the optimizer for up to options.max_generations generations.
  /// Leaves no job pending on the scheduler, also when it throws.
  MohecoResult run();

 private:
  struct Evaluated {
    opt::Fitness fitness;
    long long samples = 0;
    std::shared_ptr<mc::CandidateYield> tally;
  };

  /// Screens a batch of candidate vectors (one generation's trials or the
  /// initial population), then estimates the feasible ones together with
  /// the feasible current population members (the generation's OO candidate
  /// pool).  Updates population fitnesses in place and appends OCBA
  /// bookkeeping to `trace` when non-null.  The returned fitnesses and the
  /// population's are the stage-1/OCBA estimates; the stage-2 samples have
  /// landed in the tallies when it returns.
  std::vector<Evaluated> evaluate_batch(
      const std::vector<std::vector<double>>& xs, GenerationTrace* trace);

  /// Full-accuracy (n_max) evaluation of one point, used by the NM local
  /// search and the final reporting.
  Evaluated evaluate_accurate(std::span<const double> x);

  void init_bounds(const mc::YieldProblem& problem);
  std::size_t best_index() const;
  /// Checkpoint-mode generation boundary: atomically writes the full run
  /// state, with a snapshot of the scheduler's blob store
  /// (EvalScheduler::export_blobs), to options_.checkpoint_dir.
  void write_checkpoint(int generation, bool done, const MohecoResult& result,
                        double best_scalar, int stagnant_ls,
                        int stagnant_stop);
  /// Restores the run state saved by write_checkpoint.  Returns false when
  /// no checkpoint exists (fresh start); throws when one exists but does
  /// not match this run's problem/options shape.
  bool resume_from_checkpoint(MohecoResult& result, double& best_scalar,
                              int& stagnant_ls, int& stagnant_stop,
                              int& start_gen, bool& loop_done);
  /// Folds each surviving member's tally back into its fitness/samples.
  void refresh_population_fitness();
  void local_search(Member& best, GenerationTrace* trace);
  MohecoResult run_impl();

  const mc::YieldProblem* problem_;
  MohecoOptions options_;
  opt::Bounds bounds_;
  /// Owned when default-constructed, null when the caller supplied a shared
  /// scheduler (the daemon's pool) through the borrowing constructor.
  std::unique_ptr<ThreadPool> owned_pool_;
  std::unique_ptr<mc::EvalScheduler> owned_scheduler_;
  /// Generation-wide batched evaluation: one scheduler for the whole run,
  /// so per-worker session caches stay warm across generations.
  mc::EvalScheduler* scheduler_;
  mc::SimCounter sims_;
  stats::Rng rng_;
  std::uint64_t stream_counter_ = 0;
  std::vector<Member> population_;
  /// Best vector at the time of the previous NM local search; the search is
  /// not re-triggered while the best member is unchanged (re-running NM from
  /// the same simplex seed would repeat the same expensive, fruitless walk).
  std::vector<double> last_local_search_x_;
};

}  // namespace moheco::core
