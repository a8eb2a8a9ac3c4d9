// DC operating-point solver: damped Newton-Raphson on the MNA equations with
// gmin stepping and source stepping as continuation fallbacks.
//
// Non-convergence is an expected Monte-Carlo outcome (an extreme process
// sample can produce a genuinely broken bias point), so it is reported as a
// status, not an exception; the yield estimator counts such samples as fails.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/spice/mna.hpp"
#include "src/spice/mosfet.hpp"
#include "src/spice/netlist.hpp"
#include "src/linalg/lu.hpp"

namespace moheco::spice {

enum class SolveStatus { kOk, kNoConvergence, kSingular };
const char* to_string(SolveStatus status);

/// Stamps the Newton-linearized large-signal MOSFET companion models at
/// iterate `x` (conductances into the matrix, equivalent currents into the
/// rhs).  Shared by the DC solver and the transient solver, whose per-step
/// Newton loops linearize the same device model.
void stamp_mosfets_large_signal(const Netlist& netlist, const MnaLayout& layout,
                                Stamper<double>& stamper,
                                const std::vector<double>& x);

/// Stamps the frequency-independent linear devices -- gmin shunts,
/// resistors, voltage/current sources, VCVS, VCCS -- shared by the DC and
/// transient assemblies (inductors and capacitors are analysis-specific:
/// short/open at DC, companion models in transient).  `time` < 0 stamps
/// the DC source values scaled by `source_scale` (continuation); `time`
/// >= 0 evaluates transient waveforms at that instant.
void stamp_linear_static(const Netlist& netlist, const MnaLayout& layout,
                         Stamper<double>& stamper, double gmin,
                         double source_scale, double time);

struct DcOptions {
  int max_iterations = 200;
  double v_tol = 1e-6;      ///< absolute node-voltage tolerance (V)
  double rel_tol = 1e-6;    ///< relative tolerance
  double i_tol = 1e-9;      ///< branch-current tolerance (A)
  double gmin = 1e-12;      ///< shunt conductance to ground at every node (S)
  double max_update = 0.5;  ///< per-iteration node-voltage step clamp (V)
  bool gmin_stepping = true;
  bool source_stepping = true;
};

/// Device operating-point record for one MOSFET.
struct MosOp {
  MosEval eval;             ///< currents/conductances (NMOS convention signs)
  double vgs = 0.0, vds = 0.0, vbs = 0.0;  ///< actual terminal voltages
  MosCaps caps;             ///< small-signal capacitances
  /// Saturation margin vds_actual - vdsat in the device's own polarity;
  /// positive when safely saturated.  The circuits layer turns min margins
  /// into the "all transistors in saturation" constraint.
  double sat_margin = 0.0;
};

struct OperatingPoint {
  std::vector<double> solution;         ///< full MNA unknown vector
  std::vector<double> node_voltage;     ///< [0..num_nodes], [0] = 0
  std::vector<MosOp> mosfets;           ///< parallel to netlist.mosfets()
  std::vector<double> vsource_current;  ///< parallel to netlist.vsources()
};

class DcSolver {
 public:
  /// The sparse LU's symbolic analysis is computed once per netlist
  /// pattern and reused by every Newton iteration and every solve() call
  /// on this instance.
  explicit DcSolver(const Netlist& netlist);

  /// Solves for the operating point.  If `warm_start` is non-null and sized
  /// correctly it seeds the Newton iteration (and receives the solution).
  SolveStatus solve(const DcOptions& options,
                    std::vector<double>* warm_start = nullptr);

  /// Batched warm-path solve: lockstep damped Newton over `lanes` variants
  /// of the bound netlist (one Monte-Carlo batch of model-card
  /// perturbations), all seeded from `warm` and assembled/factored K lanes
  /// at a time through the MnaSystem's SoA batch mode.  `activate_lane(l)`
  /// is invoked before stamping or extracting lane l and must install that
  /// lane's model cards on the netlist.  A lane that converges freezes (its
  /// values stay in the batch, its state stops moving), so every lane's
  /// iterate sequence is bit-identical to a scalar solve() that stays on
  /// the warm Newton path.
  ///
  /// Returns true only when EVERY lane converged on that warm path with
  /// pure numeric refactorizations; `ops` then holds the per-lane operating
  /// points, identical to scalar solve() results.  Returns false -- leaving
  /// no observable solver state -- when batching is unavailable (no
  /// captured analysis) or any lane needs the fallback ladder
  /// (pivot breakdown, non-convergence, non-finite iterate): the caller
  /// must then evaluate the lanes sequentially through solve(), which
  /// reproduces the scalar path's evaluation-order semantics exactly
  /// (including any re-pivoting a breakdown lane triggers for later lanes).
  bool solve_batch(const DcOptions& options, std::size_t lanes,
                   const std::function<void(std::size_t)>& activate_lane,
                   const std::vector<double>& warm,
                   std::vector<OperatingPoint>* ops);

  const OperatingPoint& op() const { return op_; }
  const MnaLayout& layout() const { return layout_; }
  /// True when solve_batch() can run: a pattern and symbolic analysis
  /// captured by a prior scalar solve().
  bool batch_ready() const { return sys_.batch_ready(); }

  /// Structural fingerprint of the assembled system (unknown layout and
  /// device counts).  A serialized warm-start solution is only valid for a
  /// solver with the same key: the evaluator embeds it in its warm-start
  /// blob and rejects blobs whose key does not match, so a blob captured
  /// under a different netlist structure can never seed a Newton iteration
  /// with a mis-shaped vector.
  std::uint64_t pattern_key() const;

  /// Newton iterations used by the last solve (across all continuation
  /// stages); exposed for diagnostics and the micro benches.
  int last_iterations() const { return last_iterations_; }

 private:
  /// One Newton loop at fixed (gmin, source_scale) from state `x`.
  SolveStatus newton_loop(const DcOptions& options, double gmin,
                          double source_scale, std::vector<double>& x);
  void stamp_linear(Stamper<double>& stamper, double gmin,
                    double source_scale) const;
  void stamp_mosfets(Stamper<double>& stamper,
                     const std::vector<double>& x) const;
  void extract_op(const std::vector<double>& x);

  const Netlist& netlist_;
  MnaLayout layout_;
  MnaSystem<double> sys_;
  OperatingPoint op_;
  int last_iterations_ = 0;
};

}  // namespace moheco::spice
