#include "src/spice/netlist_gen.hpp"

#include <string>

#include "src/common/error.hpp"

namespace moheco::spice {
namespace {

// Element and node names, built by appending: gcc 12 at -O3 reports a
// false -Wrestrict on a literal + std::string rvalue.
std::string indexed(const char* prefix, int k) {
  std::string name = prefix;
  name += std::to_string(k);
  return name;
}

std::string indexed(const char* prefix, int r, int c) {
  std::string name = indexed(prefix, r);
  name += '_';
  name += std::to_string(c);
  return name;
}

}  // namespace

Netlist make_rc_ladder(const LadderSpec& spec) {
  require(spec.sections >= 1, "make_rc_ladder: sections must be >= 1");
  Netlist netlist;
  const NodeId in = netlist.node("in");
  netlist.add_vsource("vin", in, 0, spec.vin, spec.vin);
  NodeId prev = in;
  for (int k = 1; k <= spec.sections; ++k) {
    const NodeId n = netlist.node(indexed("n", k));
    netlist.add_resistor(indexed("r", k), prev, n, spec.r);
    netlist.add_capacitor(indexed("c", k), n, 0, spec.c);
    prev = n;
  }
  netlist.add_resistor("rload", prev, 0, spec.r_load);
  return netlist;
}

double rc_ladder_dc_voltage(const LadderSpec& spec, int k) {
  require(k >= 0 && k <= spec.sections, "rc_ladder_dc_voltage: bad node");
  const double current =
      spec.vin / (spec.sections * spec.r + spec.r_load);
  return spec.vin - current * k * spec.r;
}

Netlist make_rc_grid(const GridSpec& spec) {
  require(spec.rows >= 1 && spec.cols >= 1, "make_rc_grid: bad dimensions");
  Netlist netlist;
  auto node = [&](int r, int c) { return netlist.node(indexed("g", r, c)); };
  netlist.add_vsource("vin", node(0, 0), 0, spec.vin, spec.vin);
  for (int r = 0; r < spec.rows; ++r) {
    for (int c = 0; c < spec.cols; ++c) {
      const NodeId n = node(r, c);
      netlist.add_capacitor(indexed("c", r, c), n, 0, spec.c);
      if (c + 1 < spec.cols) {
        netlist.add_resistor(indexed("rh", r, c), n, node(r, c + 1), spec.r);
      }
      if (r + 1 < spec.rows) {
        netlist.add_resistor(indexed("rv", r, c), n, node(r + 1, c), spec.r);
      }
    }
  }
  netlist.add_resistor("rload", node(spec.rows - 1, spec.cols - 1), 0,
                       spec.r_load);
  return netlist;
}

}  // namespace moheco::spice
