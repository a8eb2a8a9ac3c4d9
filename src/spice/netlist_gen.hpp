// Parameterized linear benchmark netlists: RC ladders and RC grids whose
// MNA systems scale from tens to thousands of unknowns.  Used by the
// dense-LU oracle tests and the solver micro benches to exercise the sparse
// linear-solve path on patterns far beyond the amplifier testbenches.
#pragma once

#include "src/spice/netlist.hpp"

namespace moheco::spice {

/// Driven RC ladder: vin -- R -- n1 -- R -- n2 ... -- R -- n<sections>,
/// a capacitor to ground at every interior node and a load resistor from
/// the far end to ground.  MNA size = sections + 2 (nodes + source branch).
struct LadderSpec {
  int sections = 10;
  double r = 1e3;       ///< series resistance per section (ohm)
  double c = 1e-12;     ///< shunt capacitance per node (F)
  double r_load = 1e4;  ///< load at the far end (ohm)
  double vin = 1.0;     ///< drive level (V dc, also the AC magnitude)
};

Netlist make_rc_ladder(const LadderSpec& spec);

/// DC node voltage of ladder node k (1-based section index) for `spec`:
/// the caps are open at DC, so the ladder is a resistive divider chain.
double rc_ladder_dc_voltage(const LadderSpec& spec, int k);

/// Driven RC grid: rows x cols nodes with resistors between horizontal and
/// vertical neighbours, a capacitor to ground at every node, the source
/// driving corner (0, 0) and a load resistor at the opposite corner.  The
/// 2-D pattern produces real fill-in, unlike the tridiagonal-ish ladder.
struct GridSpec {
  int rows = 10;
  int cols = 10;
  double r = 1e3;
  double c = 1e-12;
  double r_load = 1e4;
  double vin = 1.0;
};

Netlist make_rc_grid(const GridSpec& spec);

}  // namespace moheco::spice
