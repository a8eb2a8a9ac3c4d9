// Batched (SoA) evaluation path: per-lane results must be bit-identical to
// the scalar path at every layer -- SparseLuBatch vs scalar refactor/solve,
// MnaSystem batch replay vs scalar slot replay, circuit Session
// evaluate_batch vs per-lane evaluate(), the examples/five_t_ota.cir deck
// twin, and EvalScheduler yield tallies across mixed batch widths and
// thread counts.  Batch width is a throughput knob, never an accuracy knob
// (the yield_problem.hpp Session contract), so every comparison here is
// exact equality, not tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "src/circuits/circuit_yield.hpp"
#include "src/circuits/netlist_problem.hpp"
#include "src/circuits/topology.hpp"
#include "src/common/parallel.hpp"
#include "src/linalg/sparse.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/obs/metrics.hpp"
#include "src/spice/deck_parser.hpp"
#include "src/spice/dc_solver.hpp"
#include "src/spice/mna.hpp"
#include "src/spice/netlist.hpp"
#include "src/spice/tran_solver.hpp"
#include "src/stats/rng.hpp"

namespace moheco {
namespace {

// ---------------------------------------------------------------------------
// Layer 1: SparseLuBatch vs scalar SparseLuSolver on random patterns.
// ---------------------------------------------------------------------------

/// Random square pattern with a full diagonal (so the fixed pivot sequence
/// survives value perturbation) plus random off-diagonal entries.
linalg::SparseMatrix<double> random_pattern(std::size_t n, int extra,
                                            std::uint64_t seed,
                                            std::vector<std::uint32_t>* slots) {
  stats::Rng rng(seed);
  linalg::SparseBuilder builder(n);
  for (std::size_t i = 0; i < n; ++i) builder.add(static_cast<int>(i), static_cast<int>(i));
  for (int e = 0; e < extra; ++e) {
    const int r = static_cast<int>(rng.uniform() * static_cast<double>(n)) %
                  static_cast<int>(n);
    const int c = static_cast<int>(rng.uniform() * static_cast<double>(n)) %
                  static_cast<int>(n);
    builder.add(r, c);
  }
  return builder.finalize<double>(slots);
}

/// Diagonally-dominant values for lane `lane`: diagonal ~n + jitter, small
/// off-diagonals, deterministic per (slot, lane).
template <typename Fill>
void fill_values(linalg::SparseMatrix<double>& a, Fill&& fill) {
  for (std::size_t c = 0; c < a.size(); ++c) {
    for (int p = a.col_ptr()[c]; p < a.col_ptr()[c + 1]; ++p) {
      a.value(static_cast<std::size_t>(p)) =
          fill(static_cast<std::size_t>(a.row_idx()[p]), c,
               static_cast<std::size_t>(p));
    }
  }
}

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs `lanes` perturbed copies of one pattern through SparseLuBatch and
/// checks every lane's solution is bit-identical to a scalar
/// refactor()+solve() of the same values.  The RHS contains exact zeros so
/// the substitution kernels exercise their zero-skip / signed-zero paths.
void check_batch_lanes(std::size_t n, int extra, std::size_t lanes,
                       std::uint64_t seed) {
  linalg::SparseMatrix<double> a = random_pattern(n, extra, seed, nullptr);
  stats::Rng rng(stats::derive_seed(seed, 0xF111, lanes));
  auto lane_value = [&](std::size_t lane) {
    return [lane, seed](std::size_t r, std::size_t c, std::size_t slot) {
      std::uint64_t z = (slot * 0x9E3779B97F4A7C15ull) ^
                        (lane * 0xBF58476D1CE4E5B9ull) ^ seed;
      z ^= z >> 29;
      z *= 0x2545F4914F6CDD1Dull;
      const double u =
          static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
      return r == c ? static_cast<double>(r + c) * 0.0 + 8.0 + u
                    : 0.25 * (2.0 * u - 1.0);
    };
  };
  (void)rng;

  // Host analysis from lane 0's values (pattern-level work).
  fill_values(a, lane_value(0));
  linalg::SparseLuSolver<double> host;
  ASSERT_TRUE(host.factor(a));

  // SoA lanes + per-lane scalar references.
  const std::size_t nnz = a.nnz();
  std::vector<double> soa(nnz * lanes);
  std::vector<double> rhs_soa(n * lanes);
  std::vector<std::vector<double>> scalar_x(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    fill_values(a, lane_value(l));
    for (std::size_t slot = 0; slot < nnz; ++slot) {
      soa[slot * lanes + l] = a.values()[slot];
    }
    std::vector<double> b(n, 0.0);  // mostly-zero rhs: zero-skip coverage
    b[0] = 1.0 + 0.125 * static_cast<double>(l);
    b[n - 1] = -0.5;
    for (std::size_t i = 0; i < n; ++i) rhs_soa[i * lanes + l] = b[i];
    ASSERT_TRUE(host.refactor(a));
    host.solve(b);
    scalar_x[l] = std::move(b);
  }

  // Re-point the host's numeric factorization at lane 0 (the batch only
  // consumes the symbolic side, but keep the state coherent regardless).
  fill_values(a, lane_value(0));
  ASSERT_TRUE(host.refactor(a));

  linalg::SparseLuBatch<double> batch;
  ASSERT_TRUE(batch.refactor(host, a, soa, lanes));
  batch.solve(rhs_soa);
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = rhs_soa[i * lanes + l];
    EXPECT_TRUE(bits_equal(x, scalar_x[l]))
        << "lane " << l << " of " << lanes << " differs from scalar";
  }
}

TEST(SparseLuBatchTest, LanesMatchScalarBitwise) {
  // 2/4/8 hit the compile-time kernels (4/8 dispatch to the wide ISA TUs on
  // capable hosts); 3, 5, 7 and 16 hit the any-width fallback (KC = 0); 1
  // hits the single-lane kernel.
  for (std::size_t lanes : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u}) {
    check_batch_lanes(/*n=*/60, /*extra=*/240, lanes, /*seed=*/0xB17C0DE + lanes);
  }
}

TEST(SparseLuBatchTest, ComplexLanesMatchScalarBitwise) {
  const std::size_t n = 40;
  std::vector<std::uint32_t> slots;
  linalg::SparseMatrix<double> proto = random_pattern(n, 160, 99, nullptr);
  // Rebuild the same pattern as complex.
  linalg::SparseBuilder builder(n);
  for (std::size_t c = 0; c < n; ++c) {
    for (int p = proto.col_ptr()[c]; p < proto.col_ptr()[c + 1]; ++p) {
      builder.add(proto.row_idx()[p], static_cast<int>(c));
    }
  }
  linalg::SparseMatrix<std::complex<double>> a =
      builder.finalize<std::complex<double>>(&slots);

  auto lane_fill = [&](std::size_t lane) {
    for (std::size_t c = 0; c < n; ++c) {
      for (int p = a.col_ptr()[c]; p < a.col_ptr()[c + 1]; ++p) {
        const auto r = static_cast<std::size_t>(a.row_idx()[p]);
        std::uint64_t z = (static_cast<std::uint64_t>(p) * 0x9E3779B97F4A7C15ull) ^
                          ((lane + 1) * 0xD1B54A32D192ED03ull);
        z ^= z >> 27;
        z *= 0x2545F4914F6CDD1Dull;
        const double u =
            static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
        a.value(static_cast<std::size_t>(p)) =
            r == c ? std::complex<double>(6.0 + u, 0.5 * u)
                   : std::complex<double>(0.2 * (2.0 * u - 1.0), 0.1 * u);
      }
    }
  };

  lane_fill(0);
  linalg::SparseLuSolver<std::complex<double>> host;
  ASSERT_TRUE(host.factor(a));

  for (std::size_t lanes : {2u, 4u, 7u, 8u}) {
    const std::size_t nnz = a.nnz();
    std::vector<std::complex<double>> soa(nnz * lanes);
    std::vector<std::complex<double>> rhs_soa(n * lanes);
    std::vector<std::vector<std::complex<double>>> scalar_x(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      lane_fill(l);
      for (std::size_t slot = 0; slot < nnz; ++slot) {
        soa[slot * lanes + l] = a.values()[slot];
      }
      std::vector<std::complex<double>> b(n);
      b[1] = {1.0, -0.25 * static_cast<double>(l)};
      for (std::size_t i = 0; i < n; ++i) rhs_soa[i * lanes + l] = b[i];
      ASSERT_TRUE(host.refactor(a));
      host.solve(b);
      scalar_x[l] = std::move(b);
    }
    lane_fill(0);
    ASSERT_TRUE(host.refactor(a));

    linalg::SparseLuBatch<std::complex<double>> batch;
    ASSERT_TRUE(batch.refactor(host, a, soa, lanes));
    batch.solve(rhs_soa);
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::complex<double> got = rhs_soa[i * lanes + l];
        const std::complex<double> want = scalar_x[l][i];
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
            << "lanes=" << lanes << " lane=" << l << " i=" << i;
      }
    }
  }
}

TEST(SparseLuBatchTest, RefusesUnanalyzedHostAndSurvivesBreakdown) {
  linalg::SparseMatrix<double> a = random_pattern(20, 60, 7, nullptr);
  fill_values(a, [](std::size_t r, std::size_t c, std::size_t) {
    return r == c ? 4.0 : 0.1;
  });
  linalg::SparseLuSolver<double> host;
  linalg::SparseLuBatch<double> batch;
  std::vector<double> soa(a.nnz() * 2, 1.0);
  EXPECT_FALSE(batch.refactor(host, a, soa, 2));  // no analysis yet

  ASSERT_TRUE(host.factor(a));
  // Lane 1 is singular (all zeros): its replayed pivot collapses, so the
  // whole batch must report breakdown without touching the host.
  std::vector<double> mixed(a.nnz() * 2, 0.0);
  for (std::size_t slot = 0; slot < a.nnz(); ++slot) {
    mixed[slot * 2] = a.values()[slot];
  }
  const long long refactors_before = host.refactorizations();
  EXPECT_FALSE(batch.refactor(host, a, mixed, 2));
  EXPECT_EQ(host.refactorizations(), refactors_before);
  EXPECT_TRUE(host.refactor(a));  // host factorization still healthy
}

TEST(SparseLuBatchTest, NaNPoisonedLaneTriggersBreakdownNotContamination) {
  // Matrix-value NaNs: the poisoned lane's column maxima go non-finite, so
  // refactor() must report breakdown (all-or-nothing, like the scalar
  // solver) without touching the host -- NaNs never become a silently-wrong
  // neighbor lane.
  linalg::SparseMatrix<double> a = random_pattern(40, 160, 21, nullptr);
  fill_values(a, [](std::size_t r, std::size_t c, std::size_t slot) {
    return r == c ? 6.0 + 0.01 * static_cast<double>(slot % 7)
                  : 0.2 - 0.01 * static_cast<double>(slot % 5);
  });
  linalg::SparseLuSolver<double> host;
  ASSERT_TRUE(host.factor(a));
  for (std::size_t lanes : {4u, 8u}) {
    std::vector<double> soa(a.nnz() * lanes);
    for (std::size_t slot = 0; slot < a.nnz(); ++slot) {
      for (std::size_t l = 0; l < lanes; ++l) {
        soa[slot * lanes + l] = a.values()[slot] * (1.0 + 0.01 * static_cast<double>(l));
      }
    }
    // Poison one mid-batch lane's values.
    const std::size_t bad = lanes / 2;
    for (std::size_t slot = 0; slot < a.nnz(); ++slot) {
      soa[slot * lanes + bad] = std::numeric_limits<double>::quiet_NaN();
    }
    linalg::SparseLuBatch<double> batch;
    EXPECT_FALSE(batch.refactor(host, a, soa, lanes)) << "lanes=" << lanes;
    EXPECT_TRUE(host.refactor(a));  // host factorization untouched
  }
}

TEST(SparseLuBatchTest, NaNRhsLaneDoesNotContaminateNeighbors) {
  // RHS NaNs flow through the substitution kernels: the poisoned lane's
  // solution is what the scalar solve of that NaN rhs produces, and every
  // other lane stays bit-identical to its scalar solve at all widths.
  const std::size_t n = 50;
  linalg::SparseMatrix<double> a = random_pattern(n, 200, 33, nullptr);
  fill_values(a, [](std::size_t r, std::size_t c, std::size_t slot) {
    return r == c ? 7.0 + 0.02 * static_cast<double>(slot % 9)
                  : 0.15 - 0.01 * static_cast<double>(slot % 4);
  });
  linalg::SparseLuSolver<double> host;
  ASSERT_TRUE(host.factor(a));
  for (std::size_t lanes : {4u, 8u}) {
    const std::size_t bad = 1;
    std::vector<double> soa(a.nnz() * lanes);
    for (std::size_t slot = 0; slot < a.nnz(); ++slot) {
      for (std::size_t l = 0; l < lanes; ++l) {
        soa[slot * lanes + l] = a.values()[slot];
      }
    }
    std::vector<double> rhs_soa(n * lanes, 0.0);
    std::vector<std::vector<double>> scalar_x(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      std::vector<double> b(n, 0.0);
      b[0] = 1.0 + static_cast<double>(l);
      b[3] = l == bad ? std::numeric_limits<double>::quiet_NaN() : -0.25;
      for (std::size_t i = 0; i < n; ++i) rhs_soa[i * lanes + l] = b[i];
      host.solve(b);
      scalar_x[l] = std::move(b);
    }
    linalg::SparseLuBatch<double> batch;
    ASSERT_TRUE(batch.refactor(host, a, soa, lanes));
    batch.solve(rhs_soa);
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t i = 0; i < n; ++i) {
        const double got = rhs_soa[i * lanes + l];
        const double want = scalar_x[l][i];
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(got)) << "lanes=" << lanes << " l=" << l;
        } else {
          ASSERT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
              << "lanes=" << lanes << " l=" << l << " i=" << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Layer 2: MnaSystem batch replay vs scalar slot replay.
// ---------------------------------------------------------------------------

/// Small resistor-grid stamp sequence with per-(sample, edge) perturbed
/// conductances; identical order every assembly, as slot replay requires.
struct GridStamp {
  int side;
  std::size_t n;
  std::vector<std::pair<int, int>> edges;

  explicit GridStamp(int s) : side(s), n(static_cast<std::size_t>(s) * s) {
    for (int i = 0; i < s; ++i) {
      for (int j = 0; j < s; ++j) {
        const int node = i * s + j;
        if (j + 1 < s) edges.push_back({node, node + 1});
        if (i + 1 < s) edges.push_back({node, node + s});
      }
    }
  }

  void stamp(spice::MnaSystem<double>& sys, std::uint64_t sample) const {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      std::uint64_t z = (sample * 0x9E3779B97F4A7C15ull) ^
                        (e * 0xBF58476D1CE4E5B9ull);
      z ^= z >> 30;
      z *= 0x2545F4914F6CDD1Dull;
      const double u =
          static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
      const double g = 1e-3 * (1.0 + 0.1 * (2.0 * u - 1.0));
      const auto [a, b] = edges[e];
      sys.add(a, a, g);
      sys.add(b, b, g);
      sys.add(a, b, -g);
      sys.add(b, a, -g);
    }
    for (std::size_t i = 0; i < n; ++i) {
      sys.add(static_cast<int>(i), static_cast<int>(i), 1e-9);
    }
    sys.rhs_add(0, 1.0);
    sys.rhs_add(static_cast<int>(n) - 1, -0.5);
  }
};

TEST(MnaBatchTest, BatchReplayMatchesScalarBitwise) {
  const GridStamp grid(9);
  spice::MnaSystem<double> sys;
  sys.reset(grid.n);
  EXPECT_FALSE(sys.batch_ready());  // no pattern captured yet

  // Cold pass: capture the pattern and the symbolic analysis.
  sys.begin_assembly();
  grid.stamp(sys, 0);
  sys.end_assembly();
  EXPECT_FALSE(sys.batch_ready());  // pattern captured, not yet analyzed
  std::vector<double> x0 = sys.rhs();
  ASSERT_TRUE(sys.factor());
  sys.solve(x0);
  ASSERT_TRUE(sys.batch_ready());

  const std::uint64_t samples = 12;
  std::vector<std::vector<double>> scalar;
  for (std::uint64_t s = 1; s <= samples; ++s) {
    sys.begin_assembly();
    grid.stamp(sys, s);
    sys.end_assembly();
    std::vector<double> x = sys.rhs();
    ASSERT_TRUE(sys.factor());
    sys.solve(x);
    scalar.push_back(std::move(x));
  }

  for (std::size_t k : {2u, 3u, 4u, 8u}) {
    std::vector<std::vector<double>> batched;
    for (std::uint64_t s = 1; s <= samples; s += k) {
      const std::size_t lanes = static_cast<std::size_t>(
          std::min<std::uint64_t>(k, samples + 1 - s));
      sys.begin_batch(lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        sys.begin_lane(l);
        grid.stamp(sys, s + l);
        sys.end_lane();
      }
      ASSERT_TRUE(sys.factor_batch());
      std::vector<double> xb = sys.batch_rhs();
      sys.solve_batch(xb);
      sys.end_batch();
      for (std::size_t l = 0; l < lanes; ++l) {
        std::vector<double> x(grid.n);
        for (std::size_t i = 0; i < grid.n; ++i) x[i] = xb[i * lanes + l];
        batched.push_back(std::move(x));
      }
    }
    ASSERT_EQ(batched.size(), scalar.size());
    for (std::size_t s = 0; s < scalar.size(); ++s) {
      EXPECT_TRUE(bits_equal(batched[s], scalar[s]))
          << "K=" << k << " sample " << s;
    }
  }

  // Scalar mode still works after batches and stays bit-stable.
  sys.begin_assembly();
  grid.stamp(sys, 0);
  sys.end_assembly();
  std::vector<double> x0_again = sys.rhs();
  ASSERT_TRUE(sys.factor());
  sys.solve(x0_again);
  EXPECT_TRUE(bits_equal(x0, x0_again));
}

// ---------------------------------------------------------------------------
// Layer 2.5: TranSolver::run_batch -- lockstep batched transient vs scalar
// run(), including the mid-transient pivot-breakdown demotion path.
// ---------------------------------------------------------------------------

/// Pulse-driven RC ladder; per-lane R/C perturbation through the mutable
/// netlist accessors (the same in-place mechanism process sampling uses).
spice::Netlist rc_ladder(int stages) {
  spice::Netlist n;
  spice::NodeId prev = n.node("in");
  n.add_pulse_vsource("Vin", prev, 0, 0.0, 1.0, 50e-9, 5e-9, 5e-9, 1.0);
  for (int s = 0; s < stages; ++s) {
    const spice::NodeId node = n.node("n" + std::to_string(s));
    n.add_resistor("R" + std::to_string(s), prev, node, 1e3);
    n.add_capacitor("C" + std::to_string(s), node, 0, 1e-12);
    prev = node;
  }
  return n;
}

TEST(TranBatchTest, RunBatchMatchesScalarBitwise) {
  const int stages = 12;
  spice::Netlist n = rc_ladder(stages);
  auto perturb = [&](std::size_t lane) {
    for (int s = 0; s < stages; ++s) {
      n.resistor(s).resistance =
          1e3 * (1.0 + 0.07 * static_cast<double>((lane * 7 + static_cast<std::size_t>(s)) % 5));
      n.capacitor(s).capacitance = 1e-12 * (1.0 + 0.05 * static_cast<double>(lane % 3));
    }
  };
  spice::TranSolver tran(n);
  spice::DcSolver dc(n);
  spice::TranOptions options;
  options.t_stop = 400e-9;

  for (std::size_t lanes : {2u, 4u, 8u}) {
    // Scalar references: per-lane step counts genuinely diverge here (each
    // lane's LTE controller sees different dynamics), so the lockstep loop
    // has to freeze early finishers while the rest keep stepping.
    std::vector<std::vector<double>> ops(lanes), ref_time(lanes), ref_v(lanes);
    const std::size_t stride = static_cast<std::size_t>(n.num_nodes()) + 1;
    for (std::size_t l = 0; l < lanes; ++l) {
      perturb(l);
      std::vector<double> sol(dc.layout().size(), 0.0);
      ASSERT_EQ(dc.solve({}, &sol), spice::SolveStatus::kOk);
      ops[l] = sol;
      ASSERT_EQ(tran.run(options, &ops[l]), spice::SolveStatus::kOk);
      ref_time[l] = tran.time();
      ref_v[l].resize(tran.num_points() * stride);
      for (std::size_t k = 0; k < tran.num_points(); ++k) {
        for (std::size_t node = 0; node < stride; ++node) {
          ref_v[l][k * stride + node] =
              tran.voltage(k, static_cast<spice::NodeId>(node));
        }
      }
    }
    std::vector<spice::TranLaneResult> results;
    ASSERT_TRUE(tran.run_batch(options, lanes, [&](std::size_t l) { perturb(l); },
                               ops, &results))
        << "K=" << lanes << ": batched transient did not engage";
    for (std::size_t l = 0; l < lanes; ++l) {
      EXPECT_EQ(results[l].status, spice::SolveStatus::kOk);
      EXPECT_TRUE(bits_equal(results[l].time, ref_time[l]))
          << "K=" << lanes << " lane " << l << " time axis differs";
      EXPECT_TRUE(bits_equal(results[l].node_v, ref_v[l]))
          << "K=" << lanes << " lane " << l << " waveform differs";
      EXPECT_EQ(results[l].stats.steps, static_cast<long long>(ref_time[l].size()) - 1);
    }
  }
}

/// Circuit engineered so a replayed pivot breaks down MID-transient: column
/// b's captured pivot is the capacitor companion conductance C/h, which
/// decays as the LTE controller grows h, while a constant VCCS entry in the
/// same column holds the column magnitude up.  About 15 accepted steps in,
/// the pivot ratio crosses kRefactorPivotTol: the scalar path silently
/// re-pivots (factor_with_reuse) and finishes, and the batch path must
/// demote instead of replaying unusable pivots.
spice::Netlist decaying_pivot_netlist() {
  spice::Netlist n;
  const spice::NodeId in = n.node("in");
  const spice::NodeId a = n.node("a");
  const spice::NodeId b = n.node("b");
  n.add_pulse_vsource("Vin", in, 0, 0.0, 1.0, 0.5e-6, 5e-9, 5e-9, 1.0);
  n.add_resistor("Rs", in, a, 1e3);
  n.add_resistor("Rla", a, 0, 1e7);
  n.add_resistor("Rlb", b, 0, 1e7);
  n.add_capacitor("Cab", a, b, 1e-12);
  n.add_vccs("G1", a, 0, b, 0, 0.5);
  spice::NodeId p = a;
  for (int s = 0; s < 5; ++s) {
    const spice::NodeId nd = n.node("x" + std::to_string(s));
    n.add_resistor("RX" + std::to_string(s), p, nd, 2e3);
    n.add_capacitor("CX" + std::to_string(s), nd, 0, 1e-12);
    p = nd;
  }
  return n;
}

TEST(TranBatchTest, MidTransientPivotBreakdownDemotesWholeBatch) {
  spice::Netlist n = decaying_pivot_netlist();
  auto perturb = [&](std::size_t lane) {
    n.capacitor(0).capacitance = 1e-12 * (1.0 + 0.03 * static_cast<double>(lane));
    n.resistor(0).resistance = 1e3 * (1.0 + 0.05 * static_cast<double>(lane));
  };
  spice::TranSolver tran(n);
  spice::DcSolver dc(n);
  spice::TranOptions o;
  o.t_stop = 1e-6;
  o.dt_init = 1e-12;  // h then grows ~1e5x, decaying the C/h pivot with it
  o.dt_max = 1e-7;

  for (std::size_t lanes : {4u, 8u}) {
    std::vector<std::vector<double>> ops(lanes), ref_time(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      perturb(l);
      std::vector<double> sol(dc.layout().size(), 0.0);
      ASSERT_EQ(dc.solve({}, &sol), spice::SolveStatus::kOk);
      ops[l] = sol;
      // Scalar survives the breakdown by re-pivoting mid-run.
      ASSERT_EQ(tran.run(o, &ops[l]), spice::SolveStatus::kOk);
      EXPECT_GT(tran.stats().steps, 20);
      ref_time[l] = tran.time();
    }
    const std::size_t scalar_points = tran.num_points();
    std::vector<spice::TranLaneResult> results;
    EXPECT_FALSE(tran.run_batch(o, lanes, [&](std::size_t l) { perturb(l); },
                                ops, &results))
        << "K=" << lanes << ": expected pivot-breakdown demotion";
    // Demotion left the scalar-path state untouched...
    EXPECT_EQ(tran.num_points(), scalar_points);
    // ...and the scalar replay the caller performs reproduces the exact
    // scalar results.
    perturb(1);
    ASSERT_EQ(tran.run(o, &ops[1]), spice::SolveStatus::kOk);
    EXPECT_TRUE(bits_equal(tran.time(), ref_time[1]));
  }
}

// ---------------------------------------------------------------------------
// Layer 3: circuit sessions -- evaluate_batch vs per-lane evaluate().
// ---------------------------------------------------------------------------

std::vector<double> midpoint_design(const mc::YieldProblem& problem, double t) {
  std::vector<double> x(problem.num_design_vars());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = problem.lower_bound(i) +
           t * (problem.upper_bound(i) - problem.lower_bound(i));
  }
  return x;
}

std::vector<double> noise_block(const mc::YieldProblem& problem,
                                std::size_t lanes, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> xis(lanes * problem.noise_dim());
  for (double& v : xis) v = rng.normal();
  return xis;
}

/// Per-lane evaluate() vs one evaluate_batch() call on fresh sessions of
/// the same problem: SampleResults must match exactly (pass AND violation).
void check_session_parity(const mc::YieldProblem& problem, std::size_t lanes,
                          std::uint64_t seed) {
  const std::vector<double> x = midpoint_design(problem, 0.45);
  const std::vector<double> xis = noise_block(problem, lanes, seed);
  const std::size_t dim = problem.noise_dim();

  auto scalar_session = problem.open(x);
  std::vector<mc::SampleResult> scalar(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    scalar[l] = scalar_session->evaluate(
        std::span<const double>(xis).subspan(l * dim, dim));
  }

  auto batch_session = problem.open(x);
  std::vector<mc::SampleResult> batched(lanes);
  batch_session->evaluate_batch(xis, lanes, batched);

  for (std::size_t l = 0; l < lanes; ++l) {
    EXPECT_EQ(batched[l].pass, scalar[l].pass) << "lane " << l;
    EXPECT_EQ(batched[l].violation, scalar[l].violation) << "lane " << l;
  }
}

TEST(CircuitBatchTest, AllTopologiesMatchScalarAtEveryWidth) {
  const auto topologies = {circuits::make_five_transistor_ota(),
                           circuits::make_folded_cascode(),
                           circuits::make_two_stage_telescopic()};
  std::uint64_t seed = 0xC1BC;
  for (const auto& topology : topologies) {
    for (int k : {1, 2, 4, 8}) {
      circuits::EvalOptions eval;
      eval.batch = k;
      const circuits::CircuitYieldProblem problem(topology, eval);
      EXPECT_EQ(problem.open(midpoint_design(problem, 0.5))->preferred_batch(),
                static_cast<std::size_t>(k));
      check_session_parity(problem, /*lanes=*/9, ++seed);
    }
  }
}

TEST(CircuitBatchTest, TransientSessionsMatchScalar) {
  circuits::EvalOptions eval;
  eval.batch = 4;
  eval.transient = true;
  const circuits::CircuitYieldProblem problem(
      circuits::make_five_transistor_ota(), eval);
  check_session_parity(problem, /*lanes=*/6, 0x7A57);
}

TEST(CircuitBatchTest, DefaultOptionsEngageBatchedSolvers) {
  // Default options with only the batch width set: the amplifier sessions
  // must run the batched solvers (not a silent scalar loop) and still match
  // per-lane evaluate() exactly.
  circuits::EvalOptions eval;
  eval.batch = 8;
  const circuits::CircuitYieldProblem problem(
      circuits::make_five_transistor_ota(), eval);
  const obs::Counter& batch_factors =
      obs::registry().counter("solver.batch_factors");
  const std::uint64_t before = batch_factors.value();
  check_session_parity(problem, /*lanes=*/8, 0xDE45E);
  EXPECT_GT(batch_factors.value(), before);
}

TEST(CircuitBatchTest, BatchWidthNeverChangesResultsAcrossWidths) {
  // Same noise block through batch widths 1/2/8 of the SAME problem
  // options: results identical (purity across widths, not just vs scalar).
  const std::size_t lanes = 8;
  std::vector<std::vector<mc::SampleResult>> results;
  for (int k : {1, 2, 8}) {
    circuits::EvalOptions eval;
    eval.batch = k;
    const circuits::CircuitYieldProblem problem(
        circuits::make_two_stage_telescopic(), eval);
    const std::vector<double> x = midpoint_design(problem, 0.6);
    const std::vector<double> xis = noise_block(problem, lanes, 0x5EED5);
    auto session = problem.open(x);
    std::vector<mc::SampleResult> out(lanes);
    session->evaluate_batch(xis, lanes, out);
    results.push_back(std::move(out));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    for (std::size_t l = 0; l < lanes; ++l) {
      EXPECT_EQ(results[i][l].pass, results[0][l].pass);
      EXPECT_EQ(results[i][l].violation, results[0][l].violation);
    }
  }
}

// ---------------------------------------------------------------------------
// Layer 4: the deck twin batches identically to the built-in topology.
// ---------------------------------------------------------------------------

TEST(DeckBatchTest, DeckTwinMatchesScalarAndBuiltin) {
  const spice::Deck deck = spice::parse_deck_file(
      std::string(MOHECO_SOURCE_DIR) + "/examples/five_t_ota.cir");
  circuits::EvalOptions eval;
  eval.batch = 4;
  const circuits::NetlistYieldProblem deck_problem(deck, eval);
  check_session_parity(deck_problem, /*lanes=*/7, 0xDECC);

  // And the deck problem's batched results equal the built-in topology's
  // batched results on the same (x, xi): one shared evaluation pipeline.
  const circuits::CircuitYieldProblem builtin(
      circuits::make_five_transistor_ota(), eval);
  const std::vector<double> x = midpoint_design(builtin, 0.45);
  const std::vector<double> xis = noise_block(builtin, 4, 0xDECD);
  std::vector<mc::SampleResult> from_deck(4), from_builtin(4);
  deck_problem.open(x)->evaluate_batch(xis, 4, from_deck);
  builtin.open(x)->evaluate_batch(xis, 4, from_builtin);
  for (std::size_t l = 0; l < 4; ++l) {
    EXPECT_EQ(from_deck[l].pass, from_builtin[l].pass);
    EXPECT_EQ(from_deck[l].violation, from_builtin[l].violation);
  }
}

// ---------------------------------------------------------------------------
// Layer 5: EvalScheduler tallies are independent of batch width and thread
// count (the scheduler may split one candidate's samples across sessions at
// any mix of widths without changing the tally).
// ---------------------------------------------------------------------------

std::vector<long long> scheduler_tallies(int batch, int workers,
                                         int per_candidate, int rounds,
                                         std::uint64_t seed) {
  circuits::EvalOptions eval;
  eval.batch = batch;
  const circuits::CircuitYieldProblem problem(
      circuits::make_five_transistor_ota(), eval);

  ThreadPool pool(workers);
  mc::EvalScheduler scheduler(pool, {});
  std::vector<std::unique_ptr<mc::CandidateYield>> candidates;
  for (int c = 0; c < 3; ++c) {
    candidates.push_back(std::make_unique<mc::CandidateYield>(
        problem, midpoint_design(problem, 0.3 + 0.2 * c),
        stats::derive_seed(seed, 0xBA7C, static_cast<std::uint64_t>(c))));
  }
  mc::SimCounter sims;
  for (int round = 0; round < rounds; ++round) {
    for (auto& c : candidates) {
      scheduler.enqueue(*c, per_candidate, mc::McOptions{});
    }
    scheduler.flush(sims, mc::SimPhase::kOcba);
  }
  std::vector<long long> tallies;
  for (const auto& c : candidates) tallies.push_back(c->passes());
  return tallies;
}

TEST(SchedulerBatchTest, TalliesIndependentOfBatchWidthAndThreads) {
  const std::uint64_t seed = 0x5C4ED;
  const int per_candidate = 18;
  const std::vector<long long> reference =
      scheduler_tallies(/*batch=*/1, /*workers=*/1, per_candidate,
                        /*rounds=*/2, seed);
  for (int batch : {2, 4, 8}) {
    for (int workers : {1, 3}) {
      EXPECT_EQ(scheduler_tallies(batch, workers, per_candidate, 2, seed),
                reference)
          << "batch=" << batch << " workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace moheco
