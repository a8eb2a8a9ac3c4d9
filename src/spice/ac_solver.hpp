// Small-signal AC analysis: complex MNA built around a DC operating point.
//
// The solver is bound to one netlist; prepare(op) re-linearizes the devices
// at a new operating point and solve(freq) assembles and factors
// (G + j*w*C) x = b at one frequency.  The assembled-system pattern depends
// only on the netlist topology, so one AcSolver reuses its sparse symbolic
// analysis across every frequency point of a sweep *and* every Monte-Carlo
// sample's prepare() -- the per-frequency cost is a restamp (O(devices))
// plus a numeric refactorization.  Inductors contribute -j*w*L on their
// branch diagonal.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "src/spice/dc_solver.hpp"
#include "src/spice/mna.hpp"
#include "src/spice/mosfet.hpp"
#include "src/spice/netlist.hpp"

namespace moheco::spice {

class AcSolver {
 public:
  /// Binds to `netlist`; call prepare() before the first solve().
  explicit AcSolver(const Netlist& netlist);
  /// Convenience: bind and prepare in one step.  `op` must come from a
  /// DcSolver on the same netlist.
  AcSolver(const Netlist& netlist, const OperatingPoint& op);

  /// Re-linearizes the MOSFETs at `op` (small-signal conductances and
  /// terminal capacitances).  Cheap: the MNA pattern and any cached
  /// symbolic factorization are retained.
  void prepare(const OperatingPoint& op);

  /// Solves the AC system at `freq` (Hz, > 0).  On success the node voltages
  /// are available through voltage()/differential().
  SolveStatus solve(double freq);

  /// Complex node voltage of node `n` at the last solved frequency.
  std::complex<double> voltage(NodeId n) const;
  /// V(np) - V(nn).
  std::complex<double> differential(NodeId np, NodeId nn) const;

  // --- Batched (SoA) frequency probes across Monte-Carlo lanes ----------
  //
  // One AC batch carries K process samples of the same netlist topology:
  // each lane holds its own operating-point linearization (prepare_lane)
  // and each solve_batch() round restamps the *active* lanes at per-lane
  // frequencies and refactors all K lanes at once through the MnaSystem's
  // SoA batch mode.  Lanes marked inactive keep their last stamped system
  // (which already factored, so the shared refactor deterministically
  // succeeds again) -- that lets a lockstep gain-bandwidth search freeze
  // finished lanes without leaving the batch.  Per-lane results are
  // bit-identical to scalar solve() at the same frequency.
  //
  // Protocol: begin_batch(K); prepare_lane(l, op_l) for every lane; then
  // any number of solve_batch(freqs, active) rounds where every lane is
  // active at least in the first round; end_batch().  solve_batch()
  // returning false means a lane's refactorization broke down: the batch
  // is dead and the caller must redo the lanes through scalar solve()
  // in lane order.

  /// True when batching is available: a pattern and symbolic analysis
  /// captured by a prior scalar solve().
  bool batch_ready() const { return sys_.batch_ready(); }
  /// Opens a K-lane batch (requires batch_ready()).  Scalar solve() is
  /// unavailable until end_batch().
  void begin_batch(std::size_t lanes);
  /// Installs lane `lane`'s small-signal linearization at `op` (the batched
  /// counterpart of prepare()).
  void prepare_lane(std::size_t lane, const OperatingPoint& op);
  /// Restamps every lane with active[l] != 0 at freq[l] (Hz, > 0) and
  /// refactors/solves the whole batch; false on any-lane pivot breakdown
  /// (batch unusable -- fall back to scalar solves).  Both spans must have
  /// exactly `lanes` entries.
  bool solve_batch(std::span<const double> freq, std::span<const char> active);
  /// Complex node voltage of lane `lane` at that lane's last active solve.
  std::complex<double> voltage(std::size_t lane, NodeId n) const;
  std::complex<double> differential(std::size_t lane, NodeId np,
                                    NodeId nn) const;
  /// Closes the batch; scalar solve() works again (its next factor() is a
  /// normal scalar refactorization).
  void end_batch() { sys_.end_batch(); }

 private:
  /// Operating-point-dependent MOSFET small-signal parameters, refreshed by
  /// prepare()/prepare_lane(); everything else stamps straight from the
  /// netlist.
  struct MosSmallSignal {
    double gm = 0.0, gds = 0.0, gmb = 0.0;
    MosCaps caps;
  };

  void stamp(double omega, const std::vector<MosSmallSignal>& mos);

  const Netlist& netlist_;
  MnaLayout layout_;
  MnaSystem<std::complex<double>> sys_;
  std::vector<MosSmallSignal> mos_;
  bool prepared_ = false;
  linalg::VectorC solution_;
  /// Per-lane linearizations and the SoA solution of the open batch
  /// (`batch_solution_[i * lanes + lane]`).
  std::vector<std::vector<MosSmallSignal>> mos_batch_;
  linalg::VectorC batch_solution_;
};

}  // namespace moheco::spice
