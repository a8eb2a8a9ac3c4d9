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

  void build_cap_states(const std::vector<double>& x);
  void refresh_mosfet_caps(const std::vector<double>& x);
  void stamp_companions(Stamper<double>& stamper, double h,
                        bool trapezoidal) const;
  void accept_step(double h, bool trapezoidal, const std::vector<double>& x);
  void append_record(double t, const std::vector<double>& x);
  /// Breakpoint schedule: source corners + the horizon.
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
