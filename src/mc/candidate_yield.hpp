// Per-candidate Monte-Carlo yield bookkeeping: a pure tally plus the
// candidate's deterministic sample stream.
//
// A CandidateYield owns no evaluation resources.  It records the nominal
// acceptance-sampling screen and the running pass tally, and it hands out
// sample batches drawn from the candidate's seed-derived stream: batch b is
// a pure function of (stream_seed, b, batch size), so yield estimates are
// bit-identical no matter how the batches are scheduled across workers.
// Execution -- sessions, worker threads, session caching -- lives in
// mc::EvalScheduler (src/mc/eval_scheduler.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/linalg/matrix.hpp"
#include "src/mc/sim_counter.hpp"
#include "src/mc/yield_problem.hpp"
#include "src/stats/samplers.hpp"

namespace moheco::mc {

class EvalScheduler;

struct McOptions {
  stats::SamplingMethod sampling = stats::SamplingMethod::kLHS;
};

class CandidateYield {
 public:
  /// `stream_seed` identifies this candidate's sample stream; giving two
  /// candidates the same seed makes their MC noise common (not used by the
  /// optimizers, but handy in tests).
  CandidateYield(const YieldProblem& problem, std::vector<double> x,
                 std::uint64_t stream_seed);

  /// Records the acceptance-sampling screen, the nominal point's result as
  /// evaluated by EvalScheduler::screen(); counts one simulation unless
  /// already screened.
  void record_nominal(const SampleResult& result, SimCounter& sims);
  bool screened() const { return screened_; }
  bool nominal_feasible() const { return screened_ && nominal_.pass; }
  double nominal_violation() const { return nominal_.violation; }

  /// Draws the next `count`-sample batch from this candidate's stream and
  /// advances the stream position.  The caller (normally the EvalScheduler)
  /// must evaluate every row and record() the outcome exactly once.
  linalg::MatrixD next_batch(long long count, const McOptions& options);
  /// Adds a finished batch to the tally.
  void record(long long samples, long long passes);

  /// Quarantine marking (EvalScheduler): the candidate's evaluation failed
  /// irrecoverably this run; optimizers treat it as infeasible.  The tally
  /// collected so far stays valid.
  void mark_failed(FailEvent reason) {
    failed_ = true;
    fail_reason_ = reason;
  }
  bool failed() const { return failed_; }
  FailEvent fail_reason() const { return fail_reason_; }

  /// Checkpoint restore: overwrites the tally counters, screen state and
  /// quarantine flag with previously saved values.  The sample stream
  /// position is implied by `batches` (batch b is a pure function of the
  /// stream seed and b).
  void restore(long long samples, long long passes, long long batches,
               bool screened, const SampleResult& nominal, bool failed,
               FailEvent fail_reason) {
    samples_ = samples;
    passes_ = passes;
    batches_ = batches;
    screened_ = screened;
    nominal_ = nominal;
    failed_ = failed;
    fail_reason_ = fail_reason;
  }

  long long samples() const { return samples_; }
  long long passes() const { return passes_; }
  long long batches() const { return batches_; }
  /// Estimated yield; 0 when no samples were drawn yet.
  double mean() const;
  /// Laplace-smoothed Bernoulli sample variance (never exactly 0, so the
  /// OCBA ratios stay finite when a tally is all-pass or all-fail).
  double smoothed_variance() const;

  const YieldProblem& problem() const { return *problem_; }
  const std::vector<double>& x() const { return x_; }
  std::uint64_t stream_seed() const { return stream_seed_; }
  /// Process-wide unique identity, used as the session-cache key (pointer
  /// identity would be unsafe: a freed candidate's address can be reused).
  std::uint64_t id() const { return id_; }

 private:
  const YieldProblem* problem_;
  std::vector<double> x_;
  std::uint64_t stream_seed_;
  std::uint64_t id_;
  long long samples_ = 0;
  long long passes_ = 0;
  long long batches_ = 0;
  bool screened_ = false;
  SampleResult nominal_;
  bool failed_ = false;
  FailEvent fail_reason_ = FailEvent::kQuarantineEval;
};

/// Reference yield estimate with `count` fresh samples (used to compute the
/// deviation columns of Tables 1 and 3; does not touch any SimCounter).
/// Routed through a per-call EvalScheduler, so the chunk scheduling matches
/// the optimizer's; the sample stream is drawn from `seed` directly and is
/// identical to earlier per-candidate implementations.
double reference_yield(const YieldProblem& problem, std::span<const double> x,
                       long long count, std::uint64_t seed, ThreadPool& pool,
                       stats::SamplingMethod sampling =
                           stats::SamplingMethod::kPMC);

/// Same estimate on a caller-owned scheduler: repeated reference runs reuse
/// cached sessions, and a re-estimate of a design point whose session was
/// evicted revives it from the scheduler's warm-start blob store instead of
/// re-running the nominal measurement.  When `sims` is non-null the samples
/// are counted under SimPhase::kOther.
double reference_yield(const YieldProblem& problem, std::span<const double> x,
                       long long count, std::uint64_t seed,
                       EvalScheduler& scheduler,
                       stats::SamplingMethod sampling =
                           stats::SamplingMethod::kPMC,
                       SimCounter* sims = nullptr);

}  // namespace moheco::mc
