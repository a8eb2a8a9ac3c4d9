// Amplifier performance evaluator: the "circuit performance evaluator" role
// HSPICE plays in the paper.
//
// Evaluation is organized in sessions: a Session is bound to one design
// point x, builds the sized netlist once, solves the nominal operating
// point, and then evaluates process samples by perturbing the device model
// cards in place (topology and MNA layout never change), warm-starting each
// DC solve from the nominal solution.  Sessions are independent, so the
// Monte-Carlo driver evaluates them concurrently from its worker threads.
//
// Sessions satisfy the mc::YieldProblem session-cache contract: all warm
// starts (DC solution, GBW crossing seed) come from the *nominal* point
// computed at construction, never from previously evaluated samples, so a
// sample's result is a pure function of (x, xi) and the mc::EvalScheduler
// may cache, evict, and reopen sessions freely.  A cold session cache miss
// re-runs the nominal measurement (one DC+AC solve, plus the step-bench
// transient when enabled) in the constructor; warm_start() serializes
// exactly that nominal state (design vector, solver pattern key, DC
// solutions, GBW crossing seed, nominal Performance) so a session revived
// from the blob skips the nominal re-measurement entirely.  The blob is
// validated (version, exact x match, pattern key) and silently ignored on
// mismatch, so a revived session is observationally identical to a cold
// one.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/circuits/performance.hpp"
#include "src/circuits/process.hpp"
#include "src/circuits/topology.hpp"
#include "src/spice/ac_solver.hpp"
#include "src/spice/dc_solver.hpp"
#include "src/spice/tran_solver.hpp"

namespace moheco::circuits {

/// Core evaluation configuration: the one knob set shared by the CLI, the
/// daemon, the benches and the problem layers.  Entry points build a single
/// EvalConfig from their flags and thread it unchanged through
/// EvalOptions / MohecoOptions to every evaluation site.
struct EvalConfig {
  /// Also build the step-buffer testbench and run a transient per
  /// evaluation, filling Performance::slew_rate / settling_time.  Off by
  /// default: a transient costs ~100x a DC+AC evaluation, so yield flows
  /// opt in explicitly.
  bool transient = false;
  /// Monte-Carlo batch width K: the scheduler hands each worker K-sample
  /// blocks of one candidate and Sessions evaluate them through the SoA
  /// batched solvers (Session::evaluate_batch).  1 (the default) keeps the
  /// scalar per-sample path; any width produces bit-identical per-sample
  /// results, so tallies are independent of K.  kBatchAuto (0)
  /// autoselects; consumers resolve it through resolve_batch().
  int batch = 1;

  /// `batch` sentinel meaning "autoselect the width for this host".
  static constexpr int kBatchAuto = 0;
  /// Widest width a flag may request: SoA lane storage grows linearly with
  /// K while the kernels stop gaining well before this.
  static constexpr int kBatchMax = 64;

  /// The one batch-width range check every entry point routes through
  /// (`moheco_cli --batch=`, `moheco_d --batch=`, daemon request
  /// `options.batch`, bench `MOHECO_BATCH`/`--batch=`).  Returns an error
  /// message naming `flag`, or an empty string when `batch` is valid
  /// (kBatchAuto or 1..kBatchMax).
  static std::string validate_batch(long long batch, std::string_view flag);

  /// Maps kBatchAuto to the host's preferred width (>= 8, widened on hosts
  /// whose runtime dispatch reports lanes wider than 8); explicit widths
  /// pass through.  The session layer resolves at construction so the
  /// sentinel can travel through configs, logs and cached specs unchanged.
  static int resolve_batch(int batch);
};

/// Evaluation controls shared by every Session of one evaluator: the common
/// EvalConfig plus the solver sub-options only the evaluator consumes.
struct EvalOptions : EvalConfig {
  /// Transient solver controls; t_stop is overridden per topology by its
  /// StepStimulus horizon.
  spice::TranOptions tran;
};

class AmplifierEvaluator {
 public:
  explicit AmplifierEvaluator(std::shared_ptr<const Topology> topology,
                              EvalOptions options = {});

  const Topology& topology() const { return *topology_; }
  const ProcessModel& process() const { return process_; }
  const EvalOptions& options() const { return options_; }

  class Session {
   public:
    Session(const AmplifierEvaluator& parent, std::span<const double> x);
    /// Blob-seeded construction: when `blob` is a valid warm_start() of the
    /// same design point (and the same evaluator configuration), the
    /// nominal measurement is skipped and its state restored from the
    /// blob; otherwise falls back to the cold path.
    Session(const AmplifierEvaluator& parent, std::span<const double> x,
            std::span<const double> blob);

    /// Evaluates one process sample; pass an empty span for the nominal
    /// point.  `xi` must otherwise have process().dim() entries.
    Performance evaluate(std::span<const double> xi);

    /// Evaluates `lanes` process samples at once.  `xis` holds the samples
    /// contiguously lane-major (sample l occupies
    /// [l * process().dim(), (l + 1) * process().dim())) and `out` receives
    /// one Performance per lane.
    ///
    /// With the nominal state in place the lanes run through the batched
    /// SoA solvers: one lockstep Newton DC solve, then a lockstep AC
    /// gain-bandwidth search where finished lanes freeze while the rest
    /// keep probing, then the per-lane transients.  Results are
    /// bit-identical to calling evaluate() on each lane in order -- any
    /// lane that leaves the shared warm path (pivot breakdown,
    /// non-convergence) demotes the whole batch to exactly that scalar
    /// loop.  Warm-blob-revived sessions whose solvers have not yet
    /// captured a pattern use the scalar loop directly.
    void evaluate_batch(std::span<const double> xis, std::size_t lanes,
                        std::span<Performance> out);

    /// The nominal-point performance (computed on construction).
    const Performance& nominal() const { return nominal_perf_; }

    /// Serializes the construction-time nominal state (see the header
    /// comment) for mc::EvalScheduler's warm-start blob store.  Empty when
    /// the nominal DC solve did not converge (nothing worth reviving).
    std::vector<double> warm_start() const;

   private:
    /// Restores the nominal state from `blob`; false leaves the session in
    /// its pre-nominal state (caller runs the cold measurement).
    bool restore_warm_start(std::span<const double> blob);
    Performance measure(bool is_nominal);
    Performance measure_small_signal(bool is_nominal);
    /// The AC leg of measure_small_signal: A0 / GBW / phase margin at
    /// operating point `op` (shared by the scalar path and the batched
    /// path's scalar fallback).
    void measure_ac(bool is_nominal, const spice::OperatingPoint& op,
                    Performance* perf);
    void measure_transient(bool is_nominal, Performance* perf);
    /// Batched phase-4 leg of evaluate_batch: lockstep step-DC + lockstep
    /// batched transient over the lanes whose small-signal leg converged
    /// (out[l].valid).  Falls back to per-lane measure_transient -- the
    /// exact scalar semantics -- whenever the batch cannot engage or any
    /// lane demotes it.
    void measure_transient_batch(
        std::size_t lanes, const std::function<void(std::size_t)>& activate,
        std::span<Performance> out);
    void apply_process(std::span<const double> xi);

    const AmplifierEvaluator* parent_;
    std::vector<double> x_;  ///< design point (embedded in warm-start blobs)
    BuiltCircuit circuit_;
    std::vector<spice::MosModel> base_cards_;
    std::unique_ptr<spice::DcSolver> dc_;
    /// One AC solver for the whole session: prepare(op) per sample keeps
    /// the assembled-system pattern and its symbolic factorization warm.
    std::unique_ptr<spice::AcSolver> ac_;
    std::vector<double> nominal_solution_;
    bool have_nominal_solution_ = false;
    Performance nominal_perf_;
    double last_crossing_ = 0.0;  ///< GBW of previous sample (search seed)

    /// Step-buffer twin of circuit_ (same transistor order, its own MNA
    /// layout), present when options().transient is set.  Process samples
    /// perturb both netlists' model cards in place.
    std::unique_ptr<BuiltCircuit> step_circuit_;
    std::unique_ptr<spice::DcSolver> step_dc_;
    std::unique_ptr<spice::TranSolver> tran_;
    std::vector<double> step_nominal_solution_;
    bool have_step_nominal_ = false;
  };

  std::unique_ptr<Session> session(std::span<const double> x) const;

  /// One-shot convenience (creates a throwaway session).
  Performance evaluate(std::span<const double> x,
                       std::span<const double> xi) const;

 private:
  std::shared_ptr<const Topology> topology_;
  ProcessModel process_;
  EvalOptions options_;
};

}  // namespace moheco::circuits
