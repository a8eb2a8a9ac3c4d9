#include "traced_problem.hpp"

namespace e2ebench {
namespace {

using moheco::mc::SampleResult;
using moheco::mc::YieldProblem;

/// Runs `fn` inside a span, counting a throw in `failed` before rethrowing.
template <typename Fn>
auto traced_call(SpanRecorder& recorder, const char* name, std::int64_t n,
                 std::atomic<long long>& failed, Fn&& fn) {
  SpanRecorder::Span span(recorder, name, n);
  try {
    return fn();
  } catch (...) {
    failed.fetch_add(1);
    throw;
  }
}

class TracedSession final : public YieldProblem::Session {
 public:
  TracedSession(std::unique_ptr<YieldProblem::Session> inner,
                SpanRecorder& recorder, std::atomic<long long>& failed)
      : inner_(std::move(inner)), recorder_(&recorder), failed_(&failed) {}

  SampleResult evaluate(std::span<const double> xi) override {
    return traced_call(*recorder_, "circuits.eval", 1, *failed_,
                       [&] { return inner_->evaluate(xi); });
  }
  void evaluate_batch(std::span<const double> xis, std::size_t lanes,
                      std::span<SampleResult> out) override {
    traced_call(*recorder_, "circuits.eval", static_cast<std::int64_t>(lanes),
                *failed_,
                [&] { inner_->evaluate_batch(xis, lanes, out); });
  }
  std::size_t preferred_batch() const override {
    return inner_->preferred_batch();
  }
  std::vector<double> warm_start_blob() const override {
    return inner_->warm_start_blob();
  }

 private:
  std::unique_ptr<YieldProblem::Session> inner_;
  SpanRecorder* recorder_;
  std::atomic<long long>* failed_;
};

}  // namespace

std::unique_ptr<YieldProblem::Session> TracedProblem::open(
    std::span<const double> x) const {
  auto inner = traced_call(*recorder_, "circuits.open", 0, failed_,
                           [&] { return inner_->open(x); });
  return std::make_unique<TracedSession>(std::move(inner), *recorder_,
                                         failed_);
}

std::unique_ptr<YieldProblem::Session> TracedProblem::open_warm(
    std::span<const double> x, std::span<const double> blob) const {
  auto inner = traced_call(*recorder_, "circuits.open_warm", 0, failed_,
                           [&] { return inner_->open_warm(x, blob); });
  return std::make_unique<TracedSession>(std::move(inner), *recorder_,
                                         failed_);
}

}  // namespace e2ebench
