// Dense-LU oracle for the sparse MNA solve path.  Every case solves the same
// system twice with the same solver class: once on the normal sparse path,
// and once with the sparse_factor fail point armed, so that every factor
// takes the sparse_to_dense degradation rung and the same assembled values
// go through dense LU (linalg::LuSolver).  The two answers must agree to
// tight tolerance on randomized conductance-stamped networks (real and
// complex AC), the generated RC ladders and grids, and the three amplifier
// topologies' nominal DC and AC solves.
//
// Both sides share assembly: the rung scatters the values the sparse path
// assembled (pattern capture, CSC finalize, slot replay), so this file checks
// factor and solve only.  Stamping is checked against closed-form answers in
// test_spice.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/circuits/topology.hpp"
#include "src/common/failpoint.hpp"
#include "src/common/failure_ladder.hpp"
#include "src/obs/metrics.hpp"
#include "src/spice/ac_solver.hpp"
#include "src/spice/dc_solver.hpp"
#include "src/spice/netlist.hpp"
#include "src/spice/netlist_gen.hpp"
#include "src/stats/rng.hpp"

namespace moheco::spice {
namespace {

/// While alive, every MnaSystem::factor() skips sparse LU (the armed
/// sparse_factor fail point) and factors through the sparse_to_dense rung.
/// The destructor disarms and checks that the rung served every factor
/// made in scope, so an oracle side can never silently run sparse.
class DenseOracleScope {
 public:
  DenseOracleScope()
      : factors_before_(factors().value()),
        ladder_before_(fail::ladder_snapshot()) {
    fail::arm("sparse_factor=prob:1");
  }
  ~DenseOracleScope() {
    const std::uint64_t made = factors().value() - factors_before_;
    const std::uint64_t fired = fail::fires(fail::Site::kSparseFactor);
    const fail::LadderSnapshot delta =
        fail::ladder_delta(ladder_before_, fail::ladder_snapshot());
    fail::disarm();
    EXPECT_GT(made, 0u);
    EXPECT_EQ(fired, made);
    EXPECT_EQ(delta.counts[static_cast<int>(fail::Ladder::kSparseToDense)],
              made);
  }
  DenseOracleScope(const DenseOracleScope&) = delete;
  DenseOracleScope& operator=(const DenseOracleScope&) = delete;

 private:
  static const obs::Counter& factors() {
    return obs::registry().counter("solver.factors");
  }

  std::uint64_t factors_before_;
  fail::LadderSnapshot ladder_before_;
};

/// Operating point of `netlist` from a flat start; through dense LU when
/// `dense_oracle` is set.
OperatingPoint dc_op(const Netlist& netlist, const DcOptions& options,
                     bool dense_oracle) {
  std::optional<DenseOracleScope> oracle;
  if (dense_oracle) oracle.emplace();
  DcSolver solver(netlist);
  EXPECT_EQ(solver.solve(options), SolveStatus::kOk);
  return solver.op();
}

/// AC node voltages at `op`, one row per frequency, indexed by NodeId
/// ([0] is ground); through dense LU when `dense_oracle` is set.
std::vector<std::vector<std::complex<double>>> ac_sweep(
    const Netlist& netlist, const OperatingPoint& op,
    const std::vector<double>& freqs, bool dense_oracle) {
  std::optional<DenseOracleScope> oracle;
  if (dense_oracle) oracle.emplace();
  AcSolver solver(netlist, op);
  std::vector<std::vector<std::complex<double>>> rows;
  for (double freq : freqs) {
    EXPECT_EQ(solver.solve(freq), SolveStatus::kOk) << freq << " Hz";
    std::vector<std::complex<double>>& row = rows.emplace_back();
    for (NodeId n = 0; n <= netlist.num_nodes(); ++n) {
      row.push_back(solver.voltage(n));
    }
  }
  return rows;
}

/// |x - oracle| <= tol * max(1, |oracle|) entry by entry.
void expect_dc_matches(const std::vector<double>& oracle,
                       const std::vector<double>& x, double tol,
                       const std::string& what) {
  ASSERT_EQ(oracle.size(), x.size()) << what;
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], oracle[i], tol * std::max(1.0, std::fabs(oracle[i])))
        << what << " unknown " << i;
  }
}

void expect_ac_matches(
    const std::vector<std::vector<std::complex<double>>>& oracle,
    const std::vector<std::vector<std::complex<double>>>& v, double tol,
    const std::string& what) {
  ASSERT_EQ(oracle.size(), v.size()) << what;
  for (std::size_t f = 0; f < v.size(); ++f) {
    ASSERT_EQ(oracle[f].size(), v[f].size()) << what;
    for (std::size_t n = 0; n < v[f].size(); ++n) {
      EXPECT_NEAR(std::abs(v[f][n] - oracle[f][n]), 0.0,
                  tol * std::max(1.0, std::abs(oracle[f][n])))
          << what << " node " << n << " at frequency #" << f;
    }
  }
}

/// `prefix` followed by decimal `k`, built by appending: gcc 12 at -O3
/// reports a false -Wrestrict on a literal + std::string rvalue.
std::string indexed(const char* prefix, int k) {
  std::string name = prefix;
  name += std::to_string(k);
  return name;
}

/// Random connected resistor network with current-source drives: a chain
/// guarantees connectivity, extra random edges give the pattern genuine
/// off-band structure.
Netlist random_conductance_network(int nodes, int extra_edges,
                                   std::uint64_t seed) {
  stats::Rng rng(seed);
  Netlist netlist;
  std::vector<NodeId> ids(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    ids[static_cast<std::size_t>(i)] = netlist.node(indexed("n", i));
  }
  auto rand_node = [&]() {
    return ids[static_cast<std::size_t>(rng.uniform() * nodes) % nodes];
  };
  netlist.add_resistor("rg0", ids[0], 0, 1e3 * (0.5 + rng.uniform()));
  for (int i = 1; i < nodes; ++i) {
    netlist.add_resistor(indexed("rc", i),
                         ids[static_cast<std::size_t>(i - 1)],
                         ids[static_cast<std::size_t>(i)],
                         1e3 * (0.5 + rng.uniform()));
  }
  for (int e = 0; e < extra_edges; ++e) {
    NodeId a = rand_node();
    NodeId b = rand_node();
    if (a == b) b = 0;
    netlist.add_resistor(indexed("re", e), a, b,
                         1e3 * (0.5 + rng.uniform()));
    // A capacitor on a subset of the extra edges exercises the complex
    // (AC) path with off-diagonal reactive stamps.
    if (e % 3 == 0) {
      netlist.add_capacitor(indexed("ce", e), a, b,
                            1e-12 * (0.5 + rng.uniform()));
    }
  }
  for (int s = 0; s < std::max(1, nodes / 8); ++s) {
    netlist.add_isource(indexed("i", s), rand_node(), 0,
                        1e-3 * (rng.uniform() - 0.5), /*ac_mag=*/1e-3);
  }
  return netlist;
}

class ConductanceOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ConductanceOracleTest, DcMatchesDenseOracle) {
  const int nodes = GetParam();
  const Netlist netlist = random_conductance_network(
      nodes, nodes / 2, 321 + static_cast<std::uint64_t>(nodes));
  expect_dc_matches(dc_op(netlist, DcOptions{}, /*dense_oracle=*/true).solution,
                    dc_op(netlist, DcOptions{}, false).solution, 1e-10, "dc");
}

TEST_P(ConductanceOracleTest, AcMatchesDenseOracle) {
  const int nodes = GetParam();
  const Netlist netlist = random_conductance_network(
      nodes, nodes / 2, 654 + static_cast<std::uint64_t>(nodes));
  const OperatingPoint op = dc_op(netlist, DcOptions{}, false);
  const std::vector<double> freqs = {1e3, 1e6, 1e9};
  expect_ac_matches(ac_sweep(netlist, op, freqs, /*dense_oracle=*/true),
                    ac_sweep(netlist, op, freqs, false), 1e-10, "ac");
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConductanceOracleTest,
                         ::testing::Values(5, 17, 40, 90, 200));

TEST(DenseOracle, RcLadderMatchesAnalyticDc) {
  LadderSpec spec;
  spec.sections = 300;
  const Netlist netlist = make_rc_ladder(spec);
  for (const bool dense_oracle : {true, false}) {
    const OperatingPoint op = dc_op(netlist, DcOptions{}, dense_oracle);
    // gmin shunts perturb the divider at the ~1e-6 level; compare there.
    for (int k : {1, 50, 150, 300}) {
      const NodeId n = k + 1;  // node "nk": "in" is id 1, "n1" is id 2, ...
      EXPECT_NEAR(op.node_voltage[n], rc_ladder_dc_voltage(spec, k), 1e-4)
          << (dense_oracle ? "dense oracle" : "sparse") << " section " << k;
    }
  }
}

TEST(DenseOracle, RcGridMatchesDcAndAc) {
  GridSpec spec;
  spec.rows = 12;
  spec.cols = 12;
  const Netlist netlist = make_rc_grid(spec);
  // Every unknown is at most 1 (V or A), so these relative checks are the
  // absolute 1e-10 bound.
  const OperatingPoint oracle_op = dc_op(netlist, DcOptions{}, true);
  expect_dc_matches(oracle_op.solution,
                    dc_op(netlist, DcOptions{}, false).solution, 1e-10, "dc");
  const std::vector<double> freqs = {1e4, 1e7, 1e10};
  expect_ac_matches(ac_sweep(netlist, oracle_op, freqs, true),
                    ac_sweep(netlist, oracle_op, freqs, false), 1e-10, "ac");
}

TEST(DenseOracle, LargeLadderAndGridMatchDcAndAc) {
  // The largest generated systems the checked sizes reach: a 500-section
  // ladder (near-tridiagonal) and a 16x16 grid (real fill-in).
  LadderSpec ladder;
  ladder.sections = 500;
  GridSpec grid;
  grid.rows = 16;
  grid.cols = 16;
  const struct {
    const char* name;
    Netlist netlist;
  } scenarios[] = {{"ladder-500", make_rc_ladder(ladder)},
                   {"grid-16x16", make_rc_grid(grid)}};
  const std::vector<double> freqs = {1e4, 1e7, 1e10};
  for (const auto& s : scenarios) {
    const OperatingPoint op = dc_op(s.netlist, DcOptions{}, false);
    expect_dc_matches(dc_op(s.netlist, DcOptions{}, true).solution,
                      op.solution, 1e-10, s.name);
    expect_ac_matches(ac_sweep(s.netlist, op, freqs, true),
                      ac_sweep(s.netlist, op, freqs, false), 1e-10, s.name);
  }
}

// --- amplifier topologies: nominal DC and AC ------------------------------

struct TopologyCase {
  const char* name;
  std::shared_ptr<const circuits::Topology> (*make)();
  std::vector<double> x0;
};

std::vector<TopologyCase> amplifier_cases() {
  return {
      {"five_t_ota", circuits::make_five_transistor_ota,
       {60e-6, 40e-6, 20e-6, 0.7e-6, 0.85}},
      {"folded_cascode", circuits::make_folded_cascode,
       {260e-6, 105e-6, 160e-6, 160e-6, 100e-6, 0.7e-6, 0.5e-6, 1.0e-6,
        38e-6, 4.6, 1.9}},
      {"two_stage_telescopic", circuits::make_two_stage_telescopic,
       {50e-6, 40e-6, 60e-6, 80e-6, 40e-6, 100e-6, 0.2e-6, 0.2e-6, 0.15e-6,
        5.0e-5, 4.0, 1.1e-12, 300.0}},
  };
}

TEST(DenseOracle, AmplifierNominalDcMatches) {
  // Tight Newton tolerances so both sides converge to the root well below
  // the 1e-10 comparison threshold.
  DcOptions options;
  options.v_tol = 1e-9;
  options.rel_tol = 1e-9;
  options.i_tol = 1e-12;
  for (const TopologyCase& tc : amplifier_cases()) {
    const circuits::BuiltCircuit circuit = tc.make()->build(tc.x0);
    expect_dc_matches(dc_op(circuit.netlist, options, true).solution,
                      dc_op(circuit.netlist, options, false).solution, 1e-10,
                      tc.name);
  }
}

TEST(DenseOracle, AmplifierAcTransferMatches) {
  const std::vector<double> freqs = {10.0, 1e4, 1e7, 1e9};
  for (const TopologyCase& tc : amplifier_cases()) {
    const circuits::BuiltCircuit circuit = tc.make()->build(tc.x0);
    const OperatingPoint op = dc_op(circuit.netlist, DcOptions{}, false);
    const auto oracle_v = ac_sweep(circuit.netlist, op, freqs, true);
    const auto v = ac_sweep(circuit.netlist, op, freqs, false);
    ASSERT_EQ(v.size(), oracle_v.size()) << tc.name;
    for (std::size_t f = 0; f < v.size(); ++f) {
      const std::complex<double> hd =
          oracle_v[f][circuit.outp] - oracle_v[f][circuit.outn];
      const std::complex<double> hs = v[f][circuit.outp] - v[f][circuit.outn];
      EXPECT_NEAR(std::abs(hd - hs), 0.0, 1e-10 * std::max(1.0, std::abs(hd)))
          << tc.name << " at " << freqs[f] << " Hz";
    }
  }
}

}  // namespace
}  // namespace moheco::spice
