#include "src/circuits/circuit_yield.hpp"

namespace moheco::circuits {

mc::SampleResult CircuitYieldProblem::CircuitSession::evaluate(
    std::span<const double> xi) {
  const Performance perf = session_->evaluate(xi);
  mc::SampleResult r;
  r.pass = passes(perf, specs_);
  r.violation = r.pass ? 0.0 : violation(perf, specs_);
  return r;
}

CircuitYieldProblem::CircuitYieldProblem(
    std::shared_ptr<const Topology> topology, EvalOptions options)
    : evaluator_(std::move(topology), options) {
  specs_ = evaluator_.topology().specs();
  if (options.transient) {
    // Transient measurement on: the step-bench specs (slew rate, settling
    // time) join the pass/fail criterion of every sample.
    const auto& tran_specs = evaluator_.topology().transient_specs();
    specs_.insert(specs_.end(), tran_specs.begin(), tran_specs.end());
  }
}

std::size_t CircuitYieldProblem::num_design_vars() const {
  return evaluator_.topology().design_vars().size();
}

double CircuitYieldProblem::lower_bound(std::size_t i) const {
  return evaluator_.topology().design_vars().at(i).lo;
}

double CircuitYieldProblem::upper_bound(std::size_t i) const {
  return evaluator_.topology().design_vars().at(i).hi;
}

std::size_t CircuitYieldProblem::noise_dim() const {
  return static_cast<std::size_t>(evaluator_.process().dim());
}

std::unique_ptr<mc::YieldProblem::Session> CircuitYieldProblem::open(
    std::span<const double> x) const {
  return std::make_unique<CircuitSession>(evaluator_, x, specs_);
}

std::unique_ptr<mc::YieldProblem::Session> CircuitYieldProblem::open_warm(
    std::span<const double> x, std::span<const double> blob) const {
  return std::make_unique<CircuitSession>(evaluator_, x, specs_, blob);
}

}  // namespace moheco::circuits
