#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "src/obs/metrics.hpp"
#include "src/spice/ac_solver.hpp"
#include "src/spice/dc_solver.hpp"
#include "src/spice/mosfet.hpp"
#include "src/spice/netlist.hpp"
#include "src/spice/netlist_format.hpp"

namespace moheco::spice {
namespace {

MosModel test_nmos() {
  MosModel m;
  m.vth0 = 0.55;
  m.gamma = 0.55;
  m.phi = 0.8;
  m.lambda = 0.06;
  m.lambda_lref = 1e-6;
  m.u0 = 0.040;
  m.tox = 7.5e-9;
  return m;
}

TEST(Netlist, GroundAliases) {
  Netlist n;
  EXPECT_EQ(n.node("0"), 0);
  EXPECT_EQ(n.node("gnd"), 0);
  EXPECT_EQ(n.node("a"), 1);
  EXPECT_EQ(n.node("a"), 1);
  EXPECT_EQ(n.num_nodes(), 1);
}

TEST(Netlist, RejectsNonPositiveResistance) {
  Netlist n;
  const NodeId a = n.node("a");
  EXPECT_THROW(n.add_resistor("R1", a, 0, 0.0), NetlistError);
  EXPECT_THROW(n.add_resistor("R1", a, 0, -5.0), NetlistError);
}

TEST(Netlist, ValidateFlagsFloatingNode) {
  Netlist n;
  const NodeId a = n.node("a");
  n.node("floating");
  n.add_resistor("R1", a, 0, 1e3);
  EXPECT_THROW(n.validate(), NetlistError);
}

TEST(Dc, ResistorDivider) {
  Netlist n;
  const NodeId vin = n.node("vin");
  const NodeId mid = n.node("mid");
  n.add_vsource("V1", vin, 0, 10.0);
  n.add_resistor("R1", vin, mid, 1e3);
  n.add_resistor("R2", mid, 0, 3e3);
  DcSolver solver(n);
  ASSERT_EQ(solver.solve(DcOptions{}), SolveStatus::kOk);
  EXPECT_NEAR(solver.op().node_voltage[mid], 7.5, 1e-6);
  // Source current: 10V across 4k, flowing out of the + terminal.
  EXPECT_NEAR(std::fabs(solver.op().vsource_current[0]), 10.0 / 4e3, 1e-9);
}

TEST(Dc, CurrentSourceIntoResistor) {
  Netlist n;
  const NodeId a = n.node("a");
  n.add_isource("I1", 0, a, 1e-3);  // pushes 1mA into node a
  n.add_resistor("R1", a, 0, 2e3);
  DcSolver solver(n);
  ASSERT_EQ(solver.solve(DcOptions{}), SolveStatus::kOk);
  EXPECT_NEAR(solver.op().node_voltage[a], 2.0, 1e-6);
}

TEST(Dc, VcvsGain) {
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add_vsource("V1", in, 0, 0.5);
  n.add_vcvs("E1", out, 0, in, 0, 4.0);
  n.add_resistor("RL", out, 0, 1e3);
  DcSolver solver(n);
  ASSERT_EQ(solver.solve(DcOptions{}), SolveStatus::kOk);
  EXPECT_NEAR(solver.op().node_voltage[out], 2.0, 1e-9);
}

TEST(Dc, VccsIntoLoad) {
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add_vsource("V1", in, 0, 1.0);
  n.add_vccs("G1", 0, out, in, 0, 2e-3);  // 2mA into out
  n.add_resistor("RL", out, 0, 1e3);
  DcSolver solver(n);
  ASSERT_EQ(solver.solve(DcOptions{}), SolveStatus::kOk);
  // gmin (1e-12 S) shunts a few nA; allow for it.
  EXPECT_NEAR(solver.op().node_voltage[out], 2.0, 1e-6);
}

TEST(Dc, InductorIsShort) {
  Netlist n;
  const NodeId a = n.node("a");
  const NodeId b = n.node("b");
  n.add_vsource("V1", a, 0, 3.0);
  n.add_inductor("L1", a, b, 1e9);
  n.add_resistor("R1", b, 0, 1e3);
  DcSolver solver(n);
  ASSERT_EQ(solver.solve(DcOptions{}), SolveStatus::kOk);
  EXPECT_NEAR(solver.op().node_voltage[b], 3.0, 1e-6);
}

TEST(MosModel, SaturationSquareLaw) {
  MosModel m = test_nmos();
  m.lambda = 0.0;  // no CLM for the clean square-law check
  const double w = 10e-6, l = 1e-6;
  const MosEval e = eval_mos(m, w, l, 1.0, 2.0, 0.0);
  EXPECT_TRUE(e.saturated);
  const double beta = m.u0 * m.cox() * w / l;
  const double vgst = 1.0 - m.vth0;
  // Smooth overdrive approaches vgst in strong inversion.
  EXPECT_NEAR(e.vdsat, vgst, 0.01);
  EXPECT_NEAR(e.id, 0.5 * beta * vgst * vgst, 0.05 * e.id);
  // gm = beta*vgst in saturation.
  EXPECT_NEAR(e.gm, beta * vgst, 0.05 * e.gm);
}

TEST(MosModel, CutoffCurrentIsTiny) {
  const MosEval e = eval_mos(test_nmos(), 10e-6, 1e-6, 0.2, 1.0, 0.0);
  EXPECT_LT(e.id, 1e-9);
  EXPECT_GT(e.id, 0.0);  // smooth subthreshold, not hard zero
}

TEST(MosModel, TriodeAndSaturationContinuity) {
  const MosModel m = test_nmos();
  const double w = 10e-6, l = 1e-6;
  const double vgs = 1.2;
  const MosEval ref = eval_mos(m, w, l, vgs, 3.0, 0.0);
  const double vdsat = ref.vdsat;
  const MosEval below = eval_mos(m, w, l, vgs, vdsat - 1e-7, 0.0);
  const MosEval above = eval_mos(m, w, l, vgs, vdsat + 1e-7, 0.0);
  EXPECT_NEAR(below.id, above.id, 1e-9 * std::max(1.0, above.id));
  EXPECT_NEAR(below.gds, above.gds, 1e-3 * std::max(above.gds, 1e-12));
}

TEST(MosModel, MonotonicInVgs) {
  const MosModel m = test_nmos();
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= 2.5; vgs += 0.05) {
    const MosEval e = eval_mos(m, 10e-6, 1e-6, vgs, 1.5, 0.0);
    EXPECT_GT(e.id, prev);
    EXPECT_GE(e.gm, 0.0);
    prev = e.id;
  }
}

TEST(MosModel, BodyEffectRaisesVth) {
  const MosModel m = test_nmos();
  const MosEval no_bias = eval_mos(m, 10e-6, 1e-6, 1.2, 1.5, 0.0);
  const MosEval reverse = eval_mos(m, 10e-6, 1e-6, 1.2, 1.5, -1.0);
  EXPECT_GT(reverse.vth, no_bias.vth);
  EXPECT_LT(reverse.id, no_bias.id);
  EXPECT_GT(reverse.gmb, 0.0);
}

TEST(MosModel, ReverseVdsAntisymmetry) {
  const MosModel m = test_nmos();
  // With vds < 0 the device conducts backwards (drain acts as source).
  const MosEval fwd = eval_mos(m, 10e-6, 1e-6, 1.5, 0.05, 0.0);
  const MosEval rev = eval_mos(m, 10e-6, 1e-6, 1.45, -0.05, -0.05);
  EXPECT_LT(rev.id, 0.0);
  // Deep-triode conduction is approximately antisymmetric.
  EXPECT_NEAR(-rev.id, fwd.id, 0.15 * fwd.id);
}

TEST(Dc, NmosDiodeOperatingPoint) {
  Netlist n;
  const NodeId d = n.node("d");
  n.add_isource("I1", 0, d, 100e-6);
  MosModel m = test_nmos();
  n.add_mosfet("M1", d, d, 0, 0, false, 20e-6, 1e-6, m);
  DcSolver solver(n);
  ASSERT_EQ(solver.solve(DcOptions{}), SolveStatus::kOk);
  const double vgs = solver.op().node_voltage[d];
  EXPECT_GT(vgs, m.vth0);
  EXPECT_LT(vgs, 1.2);
  EXPECT_NEAR(solver.op().mosfets[0].eval.id, 100e-6, 1e-8);
  EXPECT_TRUE(solver.op().mosfets[0].eval.saturated);
}

TEST(Dc, CurrentMirrorRatio) {
  Netlist n;
  const NodeId vdd = n.node("vdd");
  const NodeId g = n.node("g");
  const NodeId o = n.node("o");
  n.add_vsource("Vdd", vdd, 0, 3.3);
  n.add_isource("I1", vdd, g, 50e-6);
  const MosModel m = test_nmos();
  n.add_mosfet("M1", g, g, 0, 0, false, 10e-6, 1e-6, m);
  n.add_mosfet("M2", o, g, 0, 0, false, 30e-6, 1e-6, m);
  n.add_resistor("RL", vdd, o, 10e3);
  DcSolver solver(n);
  ASSERT_EQ(solver.solve(DcOptions{}), SolveStatus::kOk);
  const double i_out = solver.op().mosfets[1].eval.id;
  // 3x mirror, with some lambda error allowed.
  EXPECT_NEAR(i_out, 150e-6, 15e-6);
}

TEST(Ac, RcLowpassPole) {
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add_vsource("V1", in, 0, 0.0, 1.0);
  n.add_resistor("R1", in, out, 1e3);
  n.add_capacitor("C1", out, 0, 1e-9);  // fc = 159.2 kHz
  DcSolver dc(n);
  ASSERT_EQ(dc.solve(DcOptions{}), SolveStatus::kOk);
  AcSolver ac(n, dc.op());
  const double fc = 1.0 / (2.0 * M_PI * 1e3 * 1e-9);
  ASSERT_EQ(ac.solve(fc), SolveStatus::kOk);
  const std::complex<double> h = ac.voltage(out);
  EXPECT_NEAR(std::abs(h), 1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_NEAR(std::arg(h) * 180.0 / M_PI, -45.0, 1e-3);
  // Deep in the stopband the slope is -20 dB/dec.
  ASSERT_EQ(ac.solve(100.0 * fc), SolveStatus::kOk);
  EXPECT_NEAR(std::abs(ac.voltage(out)), 1.0 / 100.0, 2e-3);
}

TEST(Ac, EverySolveCountsOneComplexFactor) {
  // solver.factors totals every factorization; solver.complex_factors
  // counts the AC (complex) share alone.
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add_vsource("V1", in, 0, 0.0, 1.0);
  n.add_resistor("R1", in, out, 1e3);
  n.add_capacitor("C1", out, 0, 1e-9);
  obs::Counter& factors = obs::registry().counter("solver.factors");
  obs::Counter& complex_factors =
      obs::registry().counter("solver.complex_factors");

  const std::uint64_t dc_factors_before = factors.value();
  const std::uint64_t dc_complex_before = complex_factors.value();
  DcSolver dc(n);
  ASSERT_EQ(dc.solve(DcOptions{}), SolveStatus::kOk);
  EXPECT_GT(factors.value(), dc_factors_before);
  EXPECT_EQ(complex_factors.value(), dc_complex_before);

  AcSolver ac(n, dc.op());
  const std::uint64_t factors_before = factors.value();
  const std::uint64_t complex_before = complex_factors.value();
  constexpr std::uint64_t kSolves = 7;
  for (std::uint64_t i = 0; i < kSolves; ++i) {
    ASSERT_EQ(ac.solve(1e3 * static_cast<double>(i + 1)), SolveStatus::kOk);
  }
  EXPECT_EQ(factors.value() - factors_before, kSolves);
  EXPECT_EQ(complex_factors.value() - complex_before, kSolves);
}

TEST(Ac, InductorOpensAtHighFrequency) {
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add_vsource("V1", in, 0, 1.0, 1.0);
  n.add_inductor("L1", in, out, 1e9);
  n.add_resistor("R1", out, 0, 1e3);
  DcSolver dc(n);
  ASSERT_EQ(dc.solve(DcOptions{}), SolveStatus::kOk);
  // DC: inductor is a short.
  EXPECT_NEAR(dc.op().node_voltage[out], 1.0, 1e-6);
  AcSolver ac(n, dc.op());
  ASSERT_EQ(ac.solve(1.0), SolveStatus::kOk);
  EXPECT_LT(std::abs(ac.voltage(out)), 1e-3);
}

TEST(Ac, CommonSourceGainMatchesGmRo) {
  Netlist n;
  const NodeId vdd = n.node("vdd");
  const NodeId g = n.node("g");
  const NodeId d = n.node("d");
  n.add_vsource("Vdd", vdd, 0, 3.3);
  n.add_vsource("Vg", g, 0, 1.0, 1.0);
  const MosModel m = test_nmos();
  n.add_mosfet("M1", d, g, 0, 0, false, 10e-6, 1e-6, m);
  n.add_resistor("RD", vdd, d, 10e3);
  DcSolver dc(n);
  ASSERT_EQ(dc.solve(DcOptions{}), SolveStatus::kOk);
  ASSERT_TRUE(dc.op().mosfets[0].eval.saturated);
  const double gm = dc.op().mosfets[0].eval.gm;
  const double gds = dc.op().mosfets[0].eval.gds;
  AcSolver ac(n, dc.op());
  ASSERT_EQ(ac.solve(100.0), SolveStatus::kOk);
  const double expected = gm / (gds + 1.0 / 10e3);
  EXPECT_NEAR(std::abs(ac.voltage(d)), expected, 0.01 * expected);
}

TEST(Dc, GminSteppingRescuesColdStart) {
  // A two-stage-like stack that is hard from a flat start.
  Netlist n;
  const NodeId vdd = n.node("vdd");
  const NodeId a = n.node("a");
  const NodeId b = n.node("b");
  n.add_vsource("Vdd", vdd, 0, 3.3);
  const MosModel m = test_nmos();
  n.add_mosfet("M1", a, a, 0, 0, false, 10e-6, 1e-6, m);
  n.add_mosfet("M2", b, a, 0, 0, false, 10e-6, 1e-6, m);
  n.add_isource("I1", vdd, a, 20e-6);
  n.add_resistor("R1", vdd, b, 50e3);
  DcOptions options;
  DcSolver solver(n);
  ASSERT_EQ(solver.solve(options), SolveStatus::kOk);
  EXPECT_GT(solver.op().node_voltage[a], 0.5);
}

TEST(NetlistFormat, DeckContainsEveryDevice) {
  Netlist n;
  const NodeId a = n.node("a");
  const NodeId b = n.node("b");
  n.add_vsource("V1", a, 0, 1.5, 0.5);
  n.add_resistor("R1", a, b, 2.2e3);
  n.add_capacitor("C1", b, 0, 1e-12);
  n.add_inductor("L1", a, b, 1e-3);
  n.add_isource("I1", 0, b, 1e-6);
  n.add_vcvs("E1", b, 0, a, 0, 3.0);
  n.add_vccs("G1", b, 0, a, 0, 1e-3);
  n.add_mosfet("M1", b, a, 0, 0, false, 1e-5, 1e-6, test_nmos());
  const std::string deck = to_spice_deck(n, "unit test deck");
  for (const char* token :
       {"* unit test deck", "V1 a 0 DC 1.5 AC 0.5", "R1 a b 2200",
        "C1 b 0 1e-12", "L1 a b 0.001", "I1 0 b DC 1e-06", "E1 b 0 a 0 3",
        "G1 b 0 a 0 0.001", "M1 b a 0 0 model_M1 W=1e-05 L=1e-06",
        ".model model_M1 NMOS", ".end"}) {
    EXPECT_NE(deck.find(token), std::string::npos) << token;
  }
}

TEST(NetlistFormat, EmitsTransientWaveforms) {
  Netlist n;
  const NodeId a = n.node("a");
  const NodeId b = n.node("b");
  n.add_pulse_vsource("Vp", a, 0, 0.0, 3.3, 1e-9, 2e-9, 3e-9, 1e-6, 2e-6);
  n.add_pwl_vsource("Vw", b, 0, {{0.0, 1.0}, {1e-6, 2.5}});
  n.add_resistor("R1", a, b, 1e3);
  const std::string deck = to_spice_deck(n, "tran sources");
  EXPECT_NE(deck.find("Vp a 0 DC 0 PULSE(0 3.3 1e-09 2e-09 3e-09 1e-06 "
                      "2e-06)"),
            std::string::npos)
      << deck;
  EXPECT_NE(deck.find("Vw b 0 DC 1 PWL(0 1 1e-06 2.5)"), std::string::npos)
      << deck;
}

TEST(NetlistFormat, GoldenDeckRoundTrip) {
  // Full-deck golden comparison: the exported deck is the cross-check
  // interface against external simulators, so its exact shape is pinned.
  // Any intentional format change must update this golden text.
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add_pulse_vsource("Vin", in, 0, 0.5, 1.5, 1e-8, 1e-9, 1e-9, 5e-7);
  n.add_resistor("R1", in, out, 1e3);
  n.add_capacitor("CL", out, 0, 2e-12);
  MosModel m = test_nmos();
  n.add_mosfet("M1", out, in, 0, 0, false, 1e-5, 1e-6, m);
  const std::string golden =
      "* golden\n"
      ".nodes in out\n"
      "R1 in out 1000\n"
      "CL out 0 2e-12\n"
      "Vin in 0 DC 0.5 PULSE(0.5 1.5 1e-08 1e-09 1e-09 5e-07 0)\n"
      "M1 out in 0 0 model_M1 W=1e-05 L=1e-06\n"
      ".model model_M1 NMOS (LEVEL=1 VTO=0.55 GAMMA=0.55 PHI=0.8 "
      "LAMBDA=0.06 LREF=1e-06 TOX=7.5e-09 UO=400 U0=0.04 LD=0 WD=0 "
      "NSUB=1.5 LDIFF=5e-07 CGSO=2e-10 CGDO=2e-10 CJ=9e-04 CJSW=2.5e-10)\n"
      ".end\n";
  EXPECT_EQ(to_spice_deck(n, "golden"), golden);
}

TEST(NetlistFormat, PmosVtoIsNegative) {
  Netlist n;
  const NodeId vdd = n.node("vdd");
  n.add_vsource("Vdd", vdd, 0, 3.3);
  MosModel m = test_nmos();
  m.vth0 = 0.6;
  n.add_mosfet("M1", 0, 0, vdd, vdd, true, 1e-5, 1e-6, m);
  const std::string deck = to_spice_deck(n, "pmos");
  EXPECT_NE(deck.find("PMOS (LEVEL=1 VTO=-0.6"), std::string::npos) << deck;
}

}  // namespace
}  // namespace moheco::spice
