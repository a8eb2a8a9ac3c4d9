// Property-based tests of the simulation substrate: conservation laws,
// model smoothness and symmetry over parameter sweeps (TEST_P).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "src/spice/ac_solver.hpp"
#include "src/spice/dc_solver.hpp"
#include "src/spice/mosfet.hpp"
#include "src/spice/netlist.hpp"
#include "src/spice/tran_solver.hpp"
#include "src/stats/rng.hpp"

namespace moheco::spice {
namespace {

/// `prefix` followed by decimal `k`, built by appending: gcc 12 at -O3
/// reports a false -Wrestrict on a literal + std::string rvalue.
std::string indexed(const char* prefix, int k) {
  std::string name = prefix;
  name += std::to_string(k);
  return name;
}

MosModel property_nmos() {
  MosModel m;
  m.vth0 = 0.55;
  m.gamma = 0.55;
  m.phi = 0.8;
  m.lambda = 0.06;
  m.u0 = 0.040;
  m.tox = 7.5e-9;
  return m;
}

// ---------------------------------------------------------------------------
// MOSFET model properties over a (W, L) geometry sweep.
// ---------------------------------------------------------------------------

class MosGeometryTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MosGeometryTest, CurrentScalesWithAspectRatio) {
  const auto [w, l] = GetParam();
  const MosModel m = property_nmos();
  const MosEval unit = eval_mos(m, 10e-6, 1e-6, 1.2, 1.5, 0.0);
  const MosEval scaled = eval_mos(m, w, l, 1.2, 1.5, 0.0);
  // Saturation current scales ~ (W_eff/L_eff) modulo the length-dependent
  // channel-length modulation; check within 15%.
  const double ratio = (w / l) / (10e-6 / 1e-6);
  EXPECT_NEAR(scaled.id / unit.id, ratio, 0.15 * ratio);
}

TEST_P(MosGeometryTest, DerivativesMatchFiniteDifferences) {
  const auto [w, l] = GetParam();
  const MosModel m = property_nmos();
  const double vgs = 1.1, vds = 0.9, vbs = -0.3;
  const double h = 1e-7;
  const MosEval e = eval_mos(m, w, l, vgs, vds, vbs);
  const double gm_fd = (eval_mos(m, w, l, vgs + h, vds, vbs).id -
                        eval_mos(m, w, l, vgs - h, vds, vbs).id) /
                       (2 * h);
  const double gds_fd = (eval_mos(m, w, l, vgs, vds + h, vbs).id -
                         eval_mos(m, w, l, vgs, vds - h, vbs).id) /
                        (2 * h);
  const double gmb_fd = (eval_mos(m, w, l, vgs, vds, vbs + h).id -
                         eval_mos(m, w, l, vgs, vds, vbs - h).id) /
                        (2 * h);
  EXPECT_NEAR(e.gm, gm_fd, 1e-5 * std::max(1.0, gm_fd));
  EXPECT_NEAR(e.gds, gds_fd, 1e-5 * std::max(1.0, gds_fd));
  EXPECT_NEAR(e.gmb, gmb_fd, 2e-4 * std::max(e.gmb, 1e-9));
}

TEST_P(MosGeometryTest, CapsArePositiveAndScaleWithArea) {
  const auto [w, l] = GetParam();
  const MosModel m = property_nmos();
  const MosCaps caps = mos_caps(m, w, l, true);
  EXPECT_GT(caps.cgs, 0.0);
  EXPECT_GT(caps.cgd, 0.0);
  EXPECT_GT(caps.cdb, 0.0);
  const MosCaps big = mos_caps(m, 2.0 * w, l, true);
  EXPECT_GT(big.cgs, caps.cgs);
  EXPECT_GT(big.cdb, caps.cdb);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MosGeometryTest,
    ::testing::Values(std::make_tuple(5e-6, 0.5e-6),
                      std::make_tuple(20e-6, 1e-6),
                      std::make_tuple(100e-6, 2e-6),
                      std::make_tuple(400e-6, 0.7e-6),
                      std::make_tuple(50e-6, 4e-6)));

// ---------------------------------------------------------------------------
// Smoothness across the region boundaries over a Vgs sweep.
// ---------------------------------------------------------------------------

class MosVgsSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(MosVgsSweepTest, NoDerivativeJumps) {
  const double vgs = GetParam();
  const MosModel m = property_nmos();
  const double h = 1e-6;
  // gm must itself be continuous in vgs (C1 model).
  const double gm_left = eval_mos(m, 20e-6, 1e-6, vgs - h, 1.0, 0.0).gm;
  const double gm_right = eval_mos(m, 20e-6, 1e-6, vgs + h, 1.0, 0.0).gm;
  EXPECT_NEAR(gm_left, gm_right, 1e-3 * std::max(gm_right, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(VgsGrid, MosVgsSweepTest,
                         ::testing::Values(0.3, 0.5, 0.55, 0.6, 0.8, 1.2,
                                           1.8, 2.5));

// ---------------------------------------------------------------------------
// Conservation: KCL residual of solved DC networks.
// ---------------------------------------------------------------------------

class RandomLadderTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLadderTest, KclHoldsAtEveryInternalNode) {
  // Random resistive ladder with current sources; after the solve, the sum
  // of branch currents at every internal node must vanish (up to gmin).
  const int rungs = GetParam();
  stats::Rng rng(1000 + static_cast<std::uint64_t>(rungs));
  Netlist n;
  std::vector<NodeId> nodes;
  nodes.push_back(n.node("n0"));
  n.add_vsource("Vtop", nodes[0], 0, 5.0);
  std::vector<double> series_r, shunt_r;
  for (int i = 1; i <= rungs; ++i) {
    nodes.push_back(n.node(indexed("n", i)));
    series_r.push_back(rng.uniform(1e2, 1e5));
    shunt_r.push_back(rng.uniform(1e3, 1e6));
    n.add_resistor(indexed("Rs", i), nodes[i - 1], nodes[i],
                   series_r.back());
    n.add_resistor(indexed("Rp", i), nodes[i], 0, shunt_r.back());
    if (i % 3 == 0) {
      n.add_isource(indexed("I", i), 0, nodes[i],
                    rng.uniform(-1e-3, 1e-3));
    }
  }
  DcSolver solver(n);
  ASSERT_EQ(solver.solve(DcOptions{}), SolveStatus::kOk);
  const auto& v = solver.op().node_voltage;
  for (int i = 1; i < rungs; ++i) {
    double residual = (v[nodes[i]] - v[nodes[i - 1]]) / series_r[i - 1] +
                      (v[nodes[i]] - v[nodes[i + 1]]) / series_r[i] +
                      v[nodes[i]] / shunt_r[i - 1];
    // Subtract injected source current where present.
    for (const auto& is : n.isources()) {
      if (is.nn == nodes[i]) residual -= is.dc;
      if (is.np == nodes[i]) residual += is.dc;
    }
    EXPECT_NEAR(residual, 0.0, 1e-8) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(LadderSizes, RandomLadderTest,
                         ::testing::Values(3, 5, 8, 13, 20));

// ---------------------------------------------------------------------------
// AC properties.
// ---------------------------------------------------------------------------

TEST(AcProperties, MagnitudeIsMonotoneForSinglePole) {
  Netlist n;
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add_vsource("V1", in, 0, 0.0, 1.0);
  n.add_resistor("R1", in, out, 1e4);
  n.add_capacitor("C1", out, 0, 1e-10);
  DcSolver dc(n);
  ASSERT_EQ(dc.solve(DcOptions{}), SolveStatus::kOk);
  AcSolver ac(n, dc.op());
  double prev = 2.0;
  for (double f = 1e2; f < 1e9; f *= 3.0) {
    ASSERT_EQ(ac.solve(f), SolveStatus::kOk);
    const double mag = std::abs(ac.voltage(out));
    EXPECT_LT(mag, prev);
    prev = mag;
  }
}

TEST(AcProperties, SuperpositionOfTwoSources) {
  // AC solutions are linear: the response to two sources equals the sum of
  // the individual responses.
  auto build = [](double a1, double a2) {
    Netlist n;
    const NodeId s1 = n.node("s1");
    const NodeId s2 = n.node("s2");
    const NodeId out = n.node("out");
    n.add_vsource("V1", s1, 0, 0.0, a1);
    n.add_vsource("V2", s2, 0, 0.0, a2);
    n.add_resistor("R1", s1, out, 1e3);
    n.add_resistor("R2", s2, out, 2e3);
    n.add_resistor("R3", out, 0, 3e3);
    n.add_capacitor("C1", out, 0, 1e-9);
    return n;
  };
  auto response = [&](double a1, double a2) {
    Netlist n = build(a1, a2);
    DcSolver dc(n);
    EXPECT_EQ(dc.solve(DcOptions{}), SolveStatus::kOk);
    AcSolver ac(n, dc.op());
    EXPECT_EQ(ac.solve(1e5), SolveStatus::kOk);
    return ac.voltage(n.node("out"));
  };
  const auto both = response(1.0, 1.0);
  const auto only1 = response(1.0, 0.0);
  const auto only2 = response(0.0, 1.0);
  EXPECT_NEAR(std::abs(both - (only1 + only2)), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Transient properties: adaptive and fixed stepping agree on random
// pulse-driven RC ladders.
// ---------------------------------------------------------------------------

class TranLadderTest : public ::testing::TestWithParam<int> {};

TEST_P(TranLadderTest, AdaptiveAgreesWithFineFixedStep) {
  const int rungs = GetParam();
  stats::Rng rng(4000 + static_cast<std::uint64_t>(rungs));
  Netlist n;
  std::vector<NodeId> nodes;
  nodes.push_back(n.node("drive"));
  n.add_pulse_vsource("Vin", nodes[0], 0, 0.0, rng.uniform(0.5, 3.0),
                      /*td=*/0.2e-6, /*tr=*/1e-9, /*tf=*/1e-9, /*pw=*/1.0);
  for (int i = 1; i <= rungs; ++i) {
    nodes.push_back(n.node(indexed("n", i)));
    n.add_resistor(indexed("Rs", i), nodes[i - 1], nodes[i],
                   rng.uniform(1e2, 1e4));
    n.add_capacitor(indexed("Cp", i), nodes[i], 0,
                    rng.uniform(1e-11, 1e-9));
  }
  TranOptions adaptive_options;
  adaptive_options.t_stop = 10e-6;
  adaptive_options.lte_rel = 1e-4;
  adaptive_options.lte_abs = 1e-7;
  TranSolver adaptive(n);
  ASSERT_EQ(adaptive.run(adaptive_options), SolveStatus::kOk);

  TranOptions fixed_options;
  fixed_options.t_stop = adaptive_options.t_stop;
  fixed_options.adaptive = false;
  fixed_options.dt_init = fixed_options.t_stop / 50000.0;
  TranSolver fixed(n);
  ASSERT_EQ(fixed.run(fixed_options), SolveStatus::kOk);

  // The adaptive run must reproduce the reference waveform at every probe
  // time on every internal node, with far fewer steps.
  for (const NodeId node : nodes) {
    for (double t = 0.0; t <= fixed_options.t_stop; t += 0.5e-6) {
      EXPECT_NEAR(adaptive.voltage_at(t, node), fixed.voltage_at(t, node),
                  2e-3)
          << "node " << n.node_name(node) << " t=" << t;
    }
  }
  EXPECT_LT(adaptive.stats().steps, fixed.stats().steps / 10);
}

INSTANTIATE_TEST_SUITE_P(LadderSizes, TranLadderTest,
                         ::testing::Values(2, 4, 7, 12));

TEST(DcProperties, WarmStartMatchesColdStart) {
  // Warm-started Newton must land on the same operating point.
  Netlist n;
  const NodeId vdd = n.node("vdd");
  const NodeId g = n.node("g");
  const NodeId d = n.node("d");
  n.add_vsource("Vdd", vdd, 0, 3.3);
  n.add_isource("I1", vdd, g, 30e-6);
  const MosModel m = property_nmos();
  n.add_mosfet("M1", g, g, 0, 0, false, 20e-6, 1e-6, m);
  n.add_mosfet("M2", d, g, 0, 0, false, 40e-6, 1e-6, m);
  n.add_resistor("RL", vdd, d, 30e3);
  DcSolver solver(n);
  DcOptions options;
  ASSERT_EQ(solver.solve(options), SolveStatus::kOk);
  std::vector<double> warm = solver.op().solution;
  const double cold_vd = solver.op().node_voltage[d];
  ASSERT_EQ(solver.solve(options, &warm), SolveStatus::kOk);
  EXPECT_NEAR(solver.op().node_voltage[d], cold_vd, 1e-9);
  // Warm start should converge in very few iterations.
  EXPECT_LE(solver.last_iterations(), 5);
}

TEST(DcProperties, PmosNmosMirrorSymmetry) {
  // A PMOS biased as the mirror image of an NMOS carries the same current
  // magnitude when mobility is matched.
  MosModel nm = property_nmos();
  MosModel pm = nm;  // identical card; polarity handled by the solver
  Netlist n;
  const NodeId vdd = n.node("vdd");
  const NodeId dn = n.node("dn");
  const NodeId dp = n.node("dp");
  const NodeId gn = n.node("gn");
  const NodeId gp = n.node("gp");
  n.add_vsource("Vdd", vdd, 0, 3.0);
  n.add_vsource("Vgn", gn, 0, 1.2);
  n.add_vsource("Vgp", gp, 0, 3.0 - 1.2);
  n.add_resistor("Rn", vdd, dn, 1e4);
  n.add_resistor("Rp", dp, 0, 1e4);
  n.add_mosfet("Mn", dn, gn, 0, 0, false, 20e-6, 1e-6, nm);
  n.add_mosfet("Mp", dp, gp, vdd, vdd, true, 20e-6, 1e-6, pm);
  DcSolver solver(n);
  ASSERT_EQ(solver.solve(DcOptions{}), SolveStatus::kOk);
  const double id_n = solver.op().mosfets[0].eval.id;
  const double id_p = solver.op().mosfets[1].eval.id;
  EXPECT_NEAR(std::fabs(id_p), std::fabs(id_n), 1e-3 * std::fabs(id_n));
  EXPECT_NEAR(solver.op().node_voltage[dn],
              3.0 - solver.op().node_voltage[dp], 1e-6);
}

}  // namespace
}  // namespace moheco::spice
