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

 private:
  /// Operating-point-dependent MOSFET small-signal parameters, refreshed by
  /// prepare(); everything else stamps straight from the netlist.
  struct MosSmallSignal {
    double gm = 0.0, gds = 0.0, gmb = 0.0;
    MosCaps caps;
  };

  void stamp(double omega);

  const Netlist& netlist_;
  MnaLayout layout_;
  MnaSystem<std::complex<double>> sys_;
  std::vector<MosSmallSignal> mos_;
  bool prepared_ = false;
  linalg::VectorC solution_;
};

}  // namespace moheco::spice
