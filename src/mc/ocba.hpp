// Optimal Computing Budget Allocation (Chen et al. 2000), equation (1) of
// the paper, plus the two-stage generation estimator built on it.
//
// Given current mean/variance estimates of S candidates, OCBA distributes a
// total budget T so that candidates that are close to the best and noisy get
// many samples while clearly-bad candidates get few -- maximizing the
// probability of correctly selecting the best design:
//
//   n_i / n_j = (sigma_i / delta_{b,i})^2 / (sigma_j / delta_{b,j})^2
//   n_b       = sigma_b * sqrt( sum_{i != b} n_i^2 / sigma_i^2 )
#pragma once

#include <span>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"

namespace moheco::mc {

/// Computes the OCBA target allocation for a total budget of `total`
/// samples.  `means` and `variances` must be the same nonzero size;
/// variances must be > 0 (use smoothed estimates).  The returned targets are
/// nonnegative and sum to `total` (up to integer rounding repair).
std::vector<long long> ocba_allocation(std::span<const double> means,
                                       std::span<const double> variances,
                                       long long total);

/// Parameters of the paper's two-stage estimation flow (Section 2.3):
/// n0 initial samples per feasible candidate, an OCBA-driven budget of
/// T = sim_avg * N allocated in delta-sized increments, and promotion of
/// candidates whose estimated yield exceeds `stage2_threshold` to the
/// maximum (stage-2) sample count n_max.
struct TwoStageOptions {
  int n0 = 15;
  int sim_avg = 35;
  int delta = 0;  ///< increment per OCBA round; 0 = auto (max(T/10, S))
  int n_max = 500;
  double stage2_threshold = 0.97;
  McOptions mc;
};

/// Runs the two-stage (OO stage-1 + accurate stage-2) estimation on a set of
/// nominally feasible candidates, updating their tallies in place.  Each
/// phase (n0 pilots, every OCBA delta round, stage-2 promotion) submits all
/// candidates' sample ranges to `scheduler` as one batched job set, so the
/// pool never barriers on a single candidate's increment.  Returns the
/// indices of the candidates promoted to stage 2.
///
/// With flush_stage2 = false the stage-2 batches are enqueued (streams
/// consumed, promotion decided) but left pending on the scheduler, so the
/// caller can read the stage-1/OCBA estimates first -- the optimizer's Deb
/// selection compares those.  The caller must flush while the promoted
/// candidates are still alive.
std::vector<std::size_t> two_stage_estimate(
    std::span<CandidateYield* const> candidates, const TwoStageOptions& options,
    EvalScheduler& scheduler, SimCounter& sims, bool flush_stage2 = true);

/// Convenience overload: runs on a scheduler created for this call (session
/// caches do not persist afterwards).  Long-lived flows -- the optimizer's
/// generation loop -- should own an EvalScheduler and use the overload
/// above so hot candidates keep their sessions warm across generations.
std::vector<std::size_t> two_stage_estimate(
    std::span<CandidateYield* const> candidates, const TwoStageOptions& options,
    ThreadPool& pool, SimCounter& sims);

}  // namespace moheco::mc
