#include "src/spice/ac_solver.hpp"

#include <cmath>

#include "src/common/error.hpp"

namespace moheco::spice {

using Complex = std::complex<double>;

AcSolver::AcSolver(const Netlist& netlist)
    : netlist_(netlist), layout_(netlist) {
  sys_.reset(layout_.size());
  mos_.resize(netlist.mosfets().size());
  solution_.assign(layout_.size(), Complex{});
}

AcSolver::AcSolver(const Netlist& netlist, const OperatingPoint& op)
    : AcSolver(netlist) {
  prepare(op);
}

void AcSolver::prepare(const OperatingPoint& op) {
  require(op.mosfets.size() == netlist_.mosfets().size(),
          "AcSolver: operating point does not match netlist");
  for (std::size_t i = 0; i < mos_.size(); ++i) {
    const MosOp& rec = op.mosfets[i];
    mos_[i].gm = rec.eval.gm;
    mos_[i].gds = rec.eval.gds;
    mos_[i].gmb = rec.eval.gmb;
    mos_[i].caps = rec.caps;
  }
  prepared_ = true;
}

void AcSolver::stamp(double omega) {
  // The add/rhs_add sequence below must be identical for every omega: the
  // MnaSystem replays it against the slots captured on the first assembly.
  Stamper<Complex> stamper(sys_);
  const auto jw = [omega](double value) { return Complex(0.0, omega * value); };

  for (const auto& r : netlist_.resistors()) {
    stamper.conductance(layout_.node_index(r.n1), layout_.node_index(r.n2),
                        Complex(1.0 / r.resistance, 0.0));
  }
  for (std::size_t i = 0; i < netlist_.vsources().size(); ++i) {
    const auto& v = netlist_.vsources()[i];
    const int br = static_cast<int>(layout_.vsource_branch(i));
    const int np = layout_.node_index(v.np);
    const int nn = layout_.node_index(v.nn);
    stamper.add(np, br, Complex(1.0, 0.0));
    stamper.add(nn, br, Complex(-1.0, 0.0));
    stamper.add(br, np, Complex(1.0, 0.0));
    stamper.add(br, nn, Complex(-1.0, 0.0));
    stamper.rhs_add(br, Complex(v.ac_mag, 0.0));
  }
  for (const auto& i : netlist_.isources()) {
    stamper.rhs_add(layout_.node_index(i.np), Complex(-i.ac_mag, 0.0));
    stamper.rhs_add(layout_.node_index(i.nn), Complex(i.ac_mag, 0.0));
  }
  for (std::size_t i = 0; i < netlist_.vcvs().size(); ++i) {
    const auto& e = netlist_.vcvs()[i];
    const int br = static_cast<int>(layout_.vcvs_branch(i));
    const int np = layout_.node_index(e.np);
    const int nn = layout_.node_index(e.nn);
    stamper.add(np, br, Complex(1.0, 0.0));
    stamper.add(nn, br, Complex(-1.0, 0.0));
    stamper.add(br, np, Complex(1.0, 0.0));
    stamper.add(br, nn, Complex(-1.0, 0.0));
    stamper.add(br, layout_.node_index(e.cp), Complex(-e.gain, 0.0));
    stamper.add(br, layout_.node_index(e.cn), Complex(e.gain, 0.0));
  }
  for (const auto& g : netlist_.vccs()) {
    stamper.transconductance(layout_.node_index(g.np), layout_.node_index(g.nn),
                             layout_.node_index(g.cp), layout_.node_index(g.cn),
                             Complex(g.gm, 0.0));
  }
  // Inductors: branch equation V(n1) - V(n2) - j*w*L*I = 0.
  for (std::size_t i = 0; i < netlist_.inductors().size(); ++i) {
    const auto& l = netlist_.inductors()[i];
    const int br = static_cast<int>(layout_.inductor_branch(i));
    const int n1 = layout_.node_index(l.n1);
    const int n2 = layout_.node_index(l.n2);
    stamper.add(n1, br, Complex(1.0, 0.0));
    stamper.add(n2, br, Complex(-1.0, 0.0));
    stamper.add(br, n1, Complex(1.0, 0.0));
    stamper.add(br, n2, Complex(-1.0, 0.0));
    stamper.add(br, br, -jw(l.inductance));
  }
  for (const auto& c : netlist_.capacitors()) {
    stamper.conductance(layout_.node_index(c.n1), layout_.node_index(c.n2),
                        jw(c.capacitance));
  }
  // MOSFET small-signal conductances and capacitances at the op point.
  for (std::size_t i = 0; i < netlist_.mosfets().size(); ++i) {
    const auto& m = netlist_.mosfets()[i];
    const MosSmallSignal& ss = mos_[i];
    const int d = layout_.node_index(m.d);
    const int gn = layout_.node_index(m.g);
    const int s = layout_.node_index(m.s);
    const int b = layout_.node_index(m.b);
    stamper.add(d, gn, Complex(ss.gm, 0.0));
    stamper.add(d, d, Complex(ss.gds, 0.0));
    stamper.add(d, b, Complex(ss.gmb, 0.0));
    stamper.add(d, s, Complex(-(ss.gm + ss.gds + ss.gmb), 0.0));
    stamper.add(s, gn, Complex(-ss.gm, 0.0));
    stamper.add(s, d, Complex(-ss.gds, 0.0));
    stamper.add(s, b, Complex(-ss.gmb, 0.0));
    stamper.add(s, s, Complex(ss.gm + ss.gds + ss.gmb, 0.0));
    stamper.conductance(gn, s, jw(ss.caps.cgs));
    stamper.conductance(gn, d, jw(ss.caps.cgd));
    stamper.conductance(gn, b, jw(ss.caps.cgb));
    stamper.conductance(d, b, jw(ss.caps.cdb));
    stamper.conductance(s, b, jw(ss.caps.csb));
  }
  // Tiny shunt keeps floating AC nodes (e.g. behind open DC paths) regular.
  for (std::size_t i = 0; i < layout_.num_nodes(); ++i) {
    stamper.add(static_cast<int>(i), static_cast<int>(i), Complex(1e-12, 0.0));
  }
}

SolveStatus AcSolver::solve(double freq) {
  require(freq > 0.0, "AcSolver::solve: frequency must be > 0");
  require(prepared_, "AcSolver::solve: prepare() an operating point first");
  sys_.begin_assembly();
  stamp(2.0 * M_PI * freq);
  sys_.end_assembly();
  solution_ = sys_.rhs();
  if (!sys_.factor()) return SolveStatus::kSingular;
  sys_.solve(solution_);
  return SolveStatus::kOk;
}

Complex AcSolver::voltage(NodeId n) const {
  if (n == 0) return {0.0, 0.0};
  return solution_[static_cast<std::size_t>(n - 1)];
}

Complex AcSolver::differential(NodeId np, NodeId nn) const {
  return voltage(np) - voltage(nn);
}

}  // namespace moheco::spice
