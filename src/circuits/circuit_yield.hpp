// Adapter exposing an amplifier topology as an mc::YieldProblem: the design
// space comes from the topology's design variables, the noise space from
// its process model, and a sample passes when all specs are met.
#pragma once

#include <memory>

#include "src/circuits/evaluator.hpp"
#include "src/circuits/topology.hpp"
#include "src/mc/yield_problem.hpp"

namespace moheco::circuits {

// Subclassed by NetlistYieldProblem (src/circuits/netlist_problem.hpp),
// which supplies a deck-built topology but shares this evaluation pipeline
// verbatim -- sessions, warm-start blobs, and scheduler behavior included.
class CircuitYieldProblem : public mc::YieldProblem {
 public:
  /// With options.transient set, samples also run the step-buffer transient
  /// and the topology's transient_specs() join the pass criterion.
  explicit CircuitYieldProblem(std::shared_ptr<const Topology> topology,
                               EvalOptions options = {});

  /// The concrete session type.  Exposed so callers that need full metric
  /// readouts instead of pass/fail -- the PSWCD pilot sweep -- can run
  /// through mc::EvalScheduler's cached sessions and downcast.
  class CircuitSession final : public mc::YieldProblem::Session {
   public:
    CircuitSession(const AmplifierEvaluator& evaluator,
                   std::span<const double> x, std::span<const Spec> specs,
                   std::span<const double> blob = {})
        : session_(std::make_unique<AmplifierEvaluator::Session>(
              evaluator, x, blob)),
          specs_(specs) {}

    mc::SampleResult evaluate(std::span<const double> xi) override;

    /// Full metric readout of one sample (empty span: the nominal point).
    Performance evaluate_performance(std::span<const double> xi) {
      return session_->evaluate(xi);
    }

    /// Serialized nominal state (see AmplifierEvaluator::Session doc);
    /// consumed by CircuitYieldProblem::open_warm via the scheduler's blob
    /// store.
    std::vector<double> warm_start_blob() const override {
      return session_->warm_start();
    }

   private:
    std::unique_ptr<AmplifierEvaluator::Session> session_;
    std::span<const Spec> specs_;
  };

  std::size_t num_design_vars() const override;
  double lower_bound(std::size_t i) const override;
  double upper_bound(std::size_t i) const override;
  std::size_t noise_dim() const override;
  std::unique_ptr<Session> open(std::span<const double> x) const override;
  /// Revives a session from a warm-start blob: the nominal re-measurement
  /// is skipped when the blob matches (same x, same solver structure);
  /// otherwise this degrades to a cold open().
  std::unique_ptr<Session> open_warm(
      std::span<const double> x,
      std::span<const double> blob) const override;

  const Topology& topology() const { return evaluator_.topology(); }
  const AmplifierEvaluator& evaluator() const { return evaluator_; }
  /// The enforced spec set (topology specs, plus transient specs when
  /// transient evaluation is enabled).
  const std::vector<Spec>& specs() const { return specs_; }

  /// Full performance readout at (x, xi) -- used by diagnostics and the
  /// PSWCD baseline, which needs individual metrics rather than pass/fail.
  Performance performance(std::span<const double> x,
                          std::span<const double> xi) const {
    return evaluator_.evaluate(x, xi);
  }

 private:
  AmplifierEvaluator evaluator_;
  std::vector<Spec> specs_;
};

}  // namespace moheco::circuits
