// Time-domain (transient) analysis of the nonlinear MNA system.
//
// Integration scheme: backward-Euler startup steps, then trapezoidal
// stepping, with a damped Newton iteration per timestep (same linearized
// MOSFET stamps as the DC solver) and LTE-based adaptive step control
// driven by the predictor/corrector difference.  Source-waveform corners
// (pulse edges, PWL points) are breakpoints: the solver lands a time point
// on each and restarts with backward Euler, which keeps trapezoidal
// integration from ringing on slope discontinuities.
//
// Capacitors and inductors enter through companion models re-stamped every
// step; MOSFET terminal capacitances (Meyer-style, region-dependent) are
// refreshed from the previously accepted solution, so a device slewing
// through triode sees its capacitive load change.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/linalg/lu.hpp"
#include "src/spice/dc_solver.hpp"
#include "src/spice/mna.hpp"
#include "src/spice/netlist.hpp"

namespace moheco::spice {

struct TranOptions {
  double t_stop = 1e-6;    ///< simulation horizon (s), > 0
  double dt_init = 0.0;    ///< first step size; 0 = t_stop / 1000
  double dt_min = 0.0;     ///< smallest allowed step; 0 = t_stop * 1e-12
  double dt_max = 0.0;     ///< largest allowed step; 0 = t_stop / 50

  /// LTE-based step control.  When false the solver marches at dt_init
  /// fixed steps (still landing on breakpoints), which the convergence
  /// tests use to measure integration order.
  bool adaptive = true;
  double lte_rel = 1e-3;   ///< relative LTE tolerance per node voltage
  double lte_abs = 1e-6;   ///< absolute LTE tolerance (V)

  /// Trapezoidal stepping after the startup phase; false = backward Euler
  /// throughout (first-order, used by the order-convergence tests).
  bool trapezoidal = true;
  int be_startup_steps = 2;  ///< BE steps at t=0 and after each breakpoint

  long long max_steps = 2000000;  ///< hard cap on accepted steps
  DcOptions dc;  ///< initial operating point + per-step Newton tolerances
};

struct TranStats {
  long long steps = 0;              ///< accepted steps
  long long rejected = 0;           ///< steps rejected by the LTE control
  long long newton_iterations = 0;  ///< total Newton iterations
};

/// One lane's outcome from TranSolver::run_batch: exactly what a scalar
/// run() of that lane would have produced (same status, same stats, same
/// accepted time points, bit-identical node voltages).
struct TranLaneResult {
  SolveStatus status = SolveStatus::kNoConvergence;
  TranStats stats;
  /// Accepted time points (time[0] == 0 when the run recorded anything).
  std::vector<double> time;
  /// Node voltages per accepted point, flat with stride num_nodes + 1
  /// (entry 0 of each record is ground), matching TranSolver::voltage().
  std::vector<double> node_v;
};

/// Transient solver bound to one netlist.  Reusable: run() may be called
/// repeatedly (e.g. once per Monte-Carlo sample after in-place model-card
/// perturbation); workspace and layout are allocated once.
class TranSolver {
 public:
  /// The sparse LU's symbolic analysis is shared by every timestep's
  /// Newton iterations and every run() on this instance.
  explicit TranSolver(const Netlist& netlist);

  /// Integrates from t = 0 to options.t_stop.  If `initial_op` is non-null
  /// and sized layout().size() it is used as the t = 0 state (it must be a
  /// converged DC solution of this netlist, e.g. from DcSolver with the
  /// same model cards); otherwise an internal DC solve provides it.
  SolveStatus run(const TranOptions& options,
                  const std::vector<double>* initial_op = nullptr);

  /// Lockstep batched transient: integrates `lanes` process samples of this
  /// netlist at once on the sparse batch path.  Each lane keeps its own
  /// adaptive-step controller, companion state and recorded waveform; what
  /// is shared is the linear algebra -- every round, all lanes still
  /// iterating stamp their Newton systems into one SoA batch and factor and
  /// solve together (lanes that converged early are frozen and keep their
  /// last factorable assembly).  Per lane, the accept/reject sequence and
  /// every recorded value are bit-identical to a scalar run() of that lane.
  ///
  /// `activate_lane(l)` must install lane l's model cards (it is called
  /// before any stamping or capacitance refresh for that lane);
  /// `initial_ops[l]` must be lane l's converged DC solution, sized
  /// layout().size().  Returns false -- leaving `results` untouched and all
  /// scalar-path state (time()/stats()/...) unchanged -- when batching is
  /// unavailable (no analyzable pattern) or when any lane's
  /// replayed pivots break down mid-run; the caller must then replay every
  /// lane through scalar run() in lane order, which reproduces the exact
  /// scalar semantics including re-pivoting.  On true, `results` holds each
  /// lane's outcome; per-lane statuses other than kOk (a lane that went
  /// singular or stopped converging) match what scalar run() would return.
  bool run_batch(const TranOptions& options, std::size_t lanes,
                 const std::function<void(std::size_t)>& activate_lane,
                 const std::vector<std::vector<double>>& initial_ops,
                 std::vector<TranLaneResult>* results);

  const MnaLayout& layout() const { return layout_; }
  const TranStats& stats() const { return stats_; }

  /// Accepted time points (time()[0] == 0) and node voltages.
  const std::vector<double>& time() const { return time_; }
  std::size_t num_points() const { return time_.size(); }
  /// Node voltage of node `n` at accepted point `step`.
  double voltage(std::size_t step, NodeId n) const;
  /// V(np) - V(nn) at accepted point `step`.
  double differential(std::size_t step, NodeId np, NodeId nn) const;
  /// Linearly interpolated node voltage at an arbitrary t in [0, t_stop].
  double voltage_at(double t, NodeId n) const;

 private:
  /// One two-terminal capacitance with companion-model state.  MOSFET
  /// terminal caps carry their owner's index so the value can be refreshed
  /// each accepted step.
  struct CapState {
    int n1 = -1, n2 = -1;   ///< matrix indices (-1 = ground)
    double c = 0.0;
    double v_prev = 0.0;    ///< voltage across at the last accepted point
    double i_prev = 0.0;    ///< current through at the last accepted point
    int mosfet = -1;        ///< owning mosfet index, -1 for explicit caps
    int terminal_pair = 0;  ///< 0..4: gs, gd, gb, db, sb
  };

  // The integration-state helpers are parameterized over whose state they
  // touch: scalar run() passes the members below, run_batch() passes each
  // lane's private copies (so batching never perturbs scalar-path state).
  void build_cap_states(const std::vector<double>& x,
                        std::vector<CapState>* caps) const;
  void refresh_mosfet_caps(const std::vector<double>& x,
                           std::vector<CapState>* caps) const;
  void stamp_companions(Stamper<double>& stamper, double h, bool trapezoidal,
                        const std::vector<CapState>& caps,
                        const std::vector<double>& ind_v_prev,
                        const std::vector<double>& ind_i_prev) const;
  void accept_step(double h, bool trapezoidal, const std::vector<double>& x,
                   std::vector<CapState>* caps,
                   std::vector<double>* ind_v_prev,
                   std::vector<double>* ind_i_prev) const;
  void append_record(double t, const std::vector<double>& x,
                     std::vector<double>* time,
                     std::vector<double>* node_v) const;
  /// Shared breakpoint schedule: source corners + the horizon (sources are
  /// not process-perturbed, so every lane sees the same schedule).
  std::vector<double> build_breakpoints(double t_stop) const;
  SolveStatus newton_step(const TranOptions& options, double t_new, double h,
                          bool trapezoidal, std::vector<double>& x);

  const Netlist& netlist_;
  MnaLayout layout_;
  MnaSystem<double> sys_;

  std::vector<CapState> caps_;
  std::vector<double> inductor_v_prev_;  ///< V(n1)-V(n2) at last accepted
  std::vector<double> inductor_i_prev_;  ///< branch current at last accepted

  std::vector<double> time_;
  /// Node voltages per accepted point, flat with stride num_nodes + 1
  /// (entry 0 of each record is ground).  Flat so per-step recording is a
  /// capacity-amortized append, not a fresh vector allocation.
  std::vector<double> node_v_;
  TranStats stats_;
};

}  // namespace moheco::spice
