// Benchmark-owned mc::YieldProblem decorator for traced runs.
//
// Wraps the problem a workload hands to the scheduler or the optimizer and
// times every call into the circuits layer from outside: session opens
// ("circuits.open"), warm-blob revivals ("circuits.open_warm") and sample
// evaluations ("circuits.eval", payload = lanes).  Every other virtual is
// forwarded unchanged, including preferred_batch() and warm_start_blob(),
// so the scheduler sees the same batch widths and revives sessions through
// open_warm() exactly as it would on the bare problem: traced runs return
// the same yields, simulation counts and designs as untraced ones.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "span_recorder.hpp"
#include "src/mc/yield_problem.hpp"

namespace e2ebench {

class TracedProblem final : public moheco::mc::YieldProblem {
 public:
  TracedProblem(const moheco::mc::YieldProblem& inner, SpanRecorder& recorder)
      : inner_(&inner), recorder_(&recorder) {}

  std::size_t num_design_vars() const override {
    return inner_->num_design_vars();
  }
  double lower_bound(std::size_t i) const override {
    return inner_->lower_bound(i);
  }
  double upper_bound(std::size_t i) const override {
    return inner_->upper_bound(i);
  }
  std::size_t noise_dim() const override { return inner_->noise_dim(); }

  std::unique_ptr<Session> open(std::span<const double> x) const override;
  std::unique_ptr<Session> open_warm(
      std::span<const double> x, std::span<const double> blob) const override;

  /// Calls into the inner problem or its sessions that threw (the scheduler
  /// quarantines the candidate; the exception is rethrown unchanged).
  long long failed_calls() const { return failed_.load(); }

 private:
  const moheco::mc::YieldProblem* inner_;
  SpanRecorder* recorder_;
  mutable std::atomic<long long> failed_{0};
};

}  // namespace e2ebench
