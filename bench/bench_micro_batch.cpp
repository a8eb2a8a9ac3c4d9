// Micro benchmark for the batched (SoA) sample kernels: the MNA warm path
// -- slot-replay assembly, pivot-order-fixed numeric refactorization, and
// forward/back substitution -- run K Monte-Carlo samples at a time through
// MnaSystem's batch mode instead of one at a time.
//
// Workload: a 3-D resistor-cube MNA system (power-grid-style connectivity,
// 1000 unknowns) whose edge conductances are perturbed per sample, exactly
// like Monte-Carlo model-card perturbations perturb the amplifier systems:
// the pattern is fixed, only slot values change.  The 3-D fill-in makes the
// numeric factorization dominate each sample -- the regime the batched
// kernels target -- while 2-D grids this size factor so cheaply that
// assembly (inherently scalar stamping) caps the measurable gain.  The
// scalar baseline pays the full symbolic traversal (index chasing, one
// branch per nonzero) per sample; the batched path pays it once per K
// samples and runs the lane arithmetic over contiguous SoA slices.
//
// Timing rows cover every (batch width K, kernel vector width) pair the
// host can dispatch -- the dispatch cap (set_simd_dispatch_cap) pins the
// runtime kernel choice to scalar/2/4/8-wide so one run shows what the
// portable build, an AVX2 host and an AVX-512 host would each deliver.
// Each row's throughput is a best-of-N measurement (minimum wall time over
// repetitions) so scheduler noise inflates nothing; each row's speedup is
// the median of per-rep paired ratios against the scalar baseline measured
// in the same repetition, so host frequency drift between repetitions
// cancels inside the pair.
//
// Doubles as a correctness gate, because the whole point of the batch mode
// is that it is a pure throughput knob:
//   - per-sample solutions must be BIT-identical to the scalar path for
//     K in {2, 4, 8} (the all-lanes-nonzero fast path must not flip signed
//     zeros, lanes must never mix);
//   - EvalScheduler yield tallies over a circuit problem must be
//     identical across batch widths and thread counts;
//   - samples/sec at K=8 must be >= 2x the scalar warm path, and >= 3x
//     when the wide (4/8-lane) kernels dispatch (the acceptance gates for
//     the SoA kernels);
//   - the lockstep batched transient must produce bit-identical waveforms
//     and run >= 1.8x faster than per-lane scalar transients at K=8.
// Violations exit non-zero so CI fails.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_support.hpp"
#include "src/circuits/circuit_yield.hpp"
#include "src/circuits/topology.hpp"
#include "src/common/parallel.hpp"
#include "src/common/table.hpp"
#include "src/linalg/simd_caps.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/spice/dc_solver.hpp"
#include "src/spice/mna.hpp"
#include "src/spice/netlist.hpp"
#include "src/spice/tran_solver.hpp"
#include "src/stats/rng.hpp"

namespace {

using namespace moheco;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// 3-D resistor-cube MNA workload with per-sample conductance
/// perturbations.  Nodes are matrix indices directly (no ground elision
/// needed: every edge stamp is the full 4-entry stencil) and the stamp
/// sequence is identical for every sample, as MnaSystem's slot replay
/// requires.  The cube's fill-in puts ~95% of each scalar sample in the
/// numeric refactorization, so the measured speedup reflects the batched
/// kernels rather than the (inherently scalar) stamping.
struct GridWorkload {
  int side = 0;
  std::vector<std::pair<int, int>> edges;
  std::size_t n = 0;

  explicit GridWorkload(int s) : side(s) {
    n = static_cast<std::size_t>(s) * static_cast<std::size_t>(s) *
        static_cast<std::size_t>(s);
    const auto id = [s](int i, int j, int k) { return (i * s + j) * s + k; };
    for (int i = 0; i < s; ++i) {
      for (int j = 0; j < s; ++j) {
        for (int k = 0; k < s; ++k) {
          if (k + 1 < s) edges.push_back({id(i, j, k), id(i, j, k + 1)});
          if (j + 1 < s) edges.push_back({id(i, j, k), id(i, j + 1, k)});
          if (i + 1 < s) edges.push_back({id(i, j, k), id(i + 1, j, k)});
        }
      }
    }
  }

  /// Deterministic per-(sample, edge) conductance: base grid conductance
  /// with a few-percent "process" perturbation from a cheap hash, the same
  /// for the scalar and batched paths.
  static double conductance(std::uint64_t sample, std::uint64_t edge) {
    std::uint64_t z = (sample * 0x9E3779B97F4A7C15ull) ^
                      (edge * 0xBF58476D1CE4E5B9ull) ^ 0x94D049BB133111EBull;
    z ^= z >> 27;
    z *= 0x2545F4914F6CDD1Dull;
    z ^= z >> 31;
    const double u =
        static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);  // [0, 1)
    return 1e-3 * (1.0 + 0.05 * (2.0 * u - 1.0));
  }

  /// One sample's stamp sequence (identical order every time).  The rhs is
  /// a single corner injection, so it is almost all zeros -- which drives
  /// the substitution kernels through their zero-skip/signed-zero paths.
  void stamp(spice::MnaSystem<double>& sys, std::uint64_t sample) const {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const auto [a, b] = edges[e];
      const double g = conductance(sample, e);
      sys.add(a, a, g);
      sys.add(b, b, g);
      sys.add(a, b, -g);
      sys.add(b, a, -g);
    }
    for (std::size_t i = 0; i < n; ++i) {
      sys.add(static_cast<int>(i), static_cast<int>(i), 1e-9);
    }
    sys.rhs_add(0, 1.0);
    sys.rhs_add(static_cast<int>(n) - 1, -0.25);
  }
};

/// Scalar warm path: assemble (slot replay) + refactor + solve, one sample
/// at a time.  `out` (optional) receives each sample's solution.
double run_scalar(const GridWorkload& grid, spice::MnaSystem<double>& sys,
                  std::uint64_t first, std::uint64_t count,
                  std::vector<std::vector<double>>* out) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t s = first; s < first + count; ++s) {
    sys.begin_assembly();
    grid.stamp(sys, s);
    sys.end_assembly();
    std::vector<double> x = sys.rhs();
    if (!sys.factor()) {
      std::fprintf(stderr, "FAIL scalar factor() on sample %llu\n",
                   static_cast<unsigned long long>(s));
      std::exit(1);
    }
    sys.solve(x);
    if (out != nullptr) out->push_back(std::move(x));
  }
  return seconds_since(start);
}

/// Batched warm path: K lanes per begin_batch round, same samples.
double run_batched(const GridWorkload& grid, spice::MnaSystem<double>& sys,
                   std::uint64_t first, std::uint64_t count, std::size_t k,
                   std::vector<std::vector<double>>* out) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t s = first; s < first + count; s += k) {
    const std::size_t lanes =
        static_cast<std::size_t>(std::min<std::uint64_t>(k, first + count - s));
    sys.begin_batch(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      sys.begin_lane(l);
      grid.stamp(sys, s + l);
      sys.end_lane();
    }
    if (!sys.factor_batch()) {
      std::fprintf(stderr, "FAIL factor_batch() at sample %llu (K=%zu)\n",
                   static_cast<unsigned long long>(s), lanes);
      std::exit(1);
    }
    std::vector<double> xb = sys.batch_rhs();
    sys.solve_batch(xb);
    sys.end_batch();
    if (out != nullptr) {
      for (std::size_t l = 0; l < lanes; ++l) {
        std::vector<double> x(grid.n);
        for (std::size_t i = 0; i < grid.n; ++i) x[i] = xb[i * lanes + l];
        out->push_back(std::move(x));
      }
    }
  }
  return seconds_since(start);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Pulse-driven 2-D RC grid for the batched-transient gate: resistor mesh
/// with a capacitor per node, so every timestep's Newton factorization has
/// real 2-D fill-in (a tridiagonal ladder would factor in O(n) and hide
/// the batched kernels entirely; a transient pays assembly per Newton
/// round, so its gate is 1.8x rather than the warm DC path's 3x).  Per-lane
/// R perturbations go through the mutable netlist accessors, exactly how
/// process sampling perturbs the amplifier step bench in place.
spice::Netlist tran_grid(int side) {
  spice::Netlist n;
  const spice::NodeId in = n.node("in");
  n.add_pulse_vsource("Vin", in, 0, 0.0, 1.0, 20e-9, 2e-9, 2e-9, 1.0);
  auto grid_node = [&](int i, int j) {
    return n.node("g" + std::to_string(i) + "_" + std::to_string(j));
  };
  n.add_resistor("Rs", in, grid_node(0, 0), 200.0);
  for (int i = 0; i < side; ++i) {
    for (int j = 0; j < side; ++j) {
      if (j + 1 < side) {
        n.add_resistor("Rh" + std::to_string(i) + "_" + std::to_string(j),
                       grid_node(i, j), grid_node(i, j + 1), 1e3);
      }
      if (i + 1 < side) {
        n.add_resistor("Rv" + std::to_string(i) + "_" + std::to_string(j),
                       grid_node(i, j), grid_node(i + 1, j), 1e3);
      }
      n.add_capacitor("C" + std::to_string(i) + "_" + std::to_string(j),
                      grid_node(i, j), 0, 1e-12);
    }
  }
  return n;
}

/// EvalScheduler yield tallies for a circuit problem at one (batch width,
/// thread count) combination.
std::vector<long long> circuit_tallies(int batch, int workers,
                                       int per_candidate, int rounds,
                                       std::uint64_t seed) {
  circuits::EvalOptions eval;
  eval.batch = batch;
  const circuits::CircuitYieldProblem problem(
      circuits::make_five_transistor_ota(), eval);

  ThreadPool pool(workers);
  mc::EvalScheduler scheduler(pool, {});
  std::vector<std::unique_ptr<mc::CandidateYield>> candidates;
  const std::size_t nvars = problem.num_design_vars();
  for (int c = 0; c < 3; ++c) {
    std::vector<double> x(nvars);
    const double t = 0.35 + 0.15 * c;
    for (std::size_t i = 0; i < nvars; ++i) {
      x[i] = problem.lower_bound(i) +
             t * (problem.upper_bound(i) - problem.lower_bound(i));
    }
    candidates.push_back(std::make_unique<mc::CandidateYield>(
        problem, x,
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

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = bench::bench_prologue(
      argc, argv,
      "Micro: batched SoA sample kernels (assemble+refactor+solve K lanes "
      "at once) vs the scalar warm path");
  const bool smoke = options.scale == BenchScale::kSmoke;

  // Side 10 (n=1000) is the sweet spot on current hosts: big enough that
  // the cube's fill-in makes factorization dominate, small enough that the
  // K=8 SoA workspaces still live mostly in cache.  Smoke runs the same
  // system with fewer samples, so the smoke gate measures the same regime.
  const int grid_side = 10;
  const GridWorkload grid(grid_side);
  const std::uint64_t identity_samples = smoke ? 24 : 48;
  const std::uint64_t timing_samples = smoke ? 64 : 160;
  const int timing_reps = smoke ? 5 : 5;

  spice::MnaSystem<double> sys;
  sys.reset(grid.n);
  // Capture the pattern and the symbolic analysis (one cold factorization);
  // everything after this is the warm path both modes share.
  run_scalar(grid, sys, /*first=*/0, /*count=*/1, nullptr);

  bool ok = true;

  // --- Gate 1: bitwise per-sample identity, K in {2, 4, 8}. ---
  std::vector<std::vector<double>> scalar_solutions;
  run_scalar(grid, sys, 1, identity_samples, &scalar_solutions);
  for (std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    std::vector<std::vector<double>> batched_solutions;
    run_batched(grid, sys, 1, identity_samples, k, &batched_solutions);
    for (std::uint64_t s = 0; s < identity_samples; ++s) {
      if (!bitwise_equal(scalar_solutions[s], batched_solutions[s])) {
        std::fprintf(stderr,
                     "FAIL K=%zu: sample %llu solution differs bitwise from "
                     "the scalar path\n",
                     k, static_cast<unsigned long long>(s));
        ok = false;
        break;
      }
    }
  }

  // --- Gate 2: samples/sec per (K, kernel width); >= 2x at K=8, >= 3x
  // when the wide kernels dispatch. ---
  const linalg::SimdCaps& caps = linalg::simd_caps();
  // Every (K, dispatch cap) pair that yields a distinct kernel width on
  // this host: cap 2 reproduces the portable two-wide build, caps 4/8
  // engage the AVX2/AVX-512 translation units when the host executes them.
  struct WidthRow {
    std::size_t k;
    int cap;
    int width;
    double best = 1e300;
    std::vector<double> rep_times;
  };
  std::vector<WidthRow> width_rows;
  for (std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    int last_width = 0;
    for (int cap : {2, 4, 8}) {
      if (cap > caps.max_lane_width && last_width > 0) break;
      linalg::set_simd_dispatch_cap(cap);
      const int width = linalg::simd_dispatch_width(k);
      if (width == last_width) continue;  // cap change didn't move dispatch
      last_width = width;
      width_rows.push_back({k, cap, width});
    }
  }
  // Interleave the scalar baseline and every width row within each
  // repetition.  Throughputs (sps) are best-of-reps, the standard
  // noise-floor estimate.  Speedups are the MEDIAN of per-rep paired
  // ratios: each rep measures the scalar baseline and every batched row
  // back to back, so CPU-frequency drift between reps (which hits the
  // latency-bound scalar path far harder than the bandwidth-bound batched
  // rows) cancels within the pair instead of pairing one rep's scalar
  // burst against another rep's batch time.
  double scalar_best = 1e300;
  std::vector<double> scalar_rep_times(timing_reps);
  for (int rep = 0; rep < timing_reps; ++rep) {
    scalar_rep_times[rep] = run_scalar(grid, sys, 1000, timing_samples,
                                       nullptr);
    scalar_best = std::min(scalar_best, scalar_rep_times[rep]);
    for (WidthRow& row : width_rows) {
      linalg::set_simd_dispatch_cap(row.cap);
      row.rep_times.push_back(
          run_batched(grid, sys, 1000, timing_samples, row.k, nullptr));
      row.best = std::min(row.best, row.rep_times.back());
    }
  }
  linalg::set_simd_dispatch_cap(caps.max_lane_width);  // restore
  const auto median_paired_speedup = [&](const WidthRow& row) {
    std::vector<double> ratios(row.rep_times.size());
    for (std::size_t i = 0; i < ratios.size(); ++i) {
      ratios[i] = scalar_rep_times[i] / row.rep_times[i];
    }
    std::sort(ratios.begin(), ratios.end());
    return ratios[ratios.size() / 2];
  };

  Table table({"path", "kernel", "samples/s", "speedup"});
  const double scalar_sps = static_cast<double>(timing_samples) / scalar_best;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g", scalar_sps);
  table.add_row({"scalar (K=1)", "w=1", buf, "1.0x"});
  std::string json_rows;
  {
    char row[160];
    std::snprintf(row, sizeof(row),
                  "{\"k\":1,\"kernel_width\":1,\"sps\":%.1f,\"speedup\":1.0}",
                  scalar_sps);
    json_rows += row;
  }
  // Gate row: the best K=8 row with a wide (4/8-lane) kernel.  The two wide
  // widths are close by design and which one wins is host-specific (AVX-512
  // units downclock on some parts, double-pump on others), so the gate takes
  // whichever the host runs faster -- the regression job tracks every row
  // individually.  Hosts with no wide kernel gate their best K=8 row at 2x.
  double k8_wide_speedup = 0.0;
  int k8_wide_width = 1;
  for (const WidthRow& wr : width_rows) {
    const double sps = static_cast<double>(timing_samples) / wr.best;
    const double speedup = median_paired_speedup(wr);
    if (wr.k == 8) {
      const bool wide = wr.width >= 4;
      const bool best_wide = k8_wide_width >= 4;
      if ((wide && !best_wide) ||
          (wide == best_wide && speedup > k8_wide_speedup)) {
        k8_wide_width = wr.width;
        k8_wide_speedup = speedup;
      }
    }
    char sp[32];
    std::snprintf(buf, sizeof(buf), "%.3g", sps);
    std::snprintf(sp, sizeof(sp), "%.2fx", speedup);
    table.add_row({"batched K=" + std::to_string(wr.k),
                   "w=" + std::to_string(wr.width), buf, sp});
    char row[160];
    std::snprintf(row, sizeof(row),
                  ",{\"k\":%zu,\"kernel_width\":%d,\"sps\":%.1f,"
                  "\"speedup\":%.2f}",
                  wr.k, wr.width, sps, speedup);
    json_rows += row;
  }
  // The throughput gate scales with what the host can dispatch: every host
  // must clear 2x at K=8; hosts where the wide kernels engage must clear 3x.
  const double k8_required = k8_wide_width >= 4 ? 3.0 : 2.0;
  if (k8_wide_speedup < k8_required) {
    std::fprintf(stderr,
                 "FAIL batched K=8 (kernel width %d) speedup %.2fx < %.1fx "
                 "over the scalar warm path\n",
                 k8_wide_width, k8_wide_speedup, k8_required);
    ok = false;
  }
  table.print(std::cout, "R-cube " + std::to_string(grid_side) + "x" +
                             std::to_string(grid_side) + "x" +
                             std::to_string(grid_side) +
                             " warm path (assemble+refactor+solve, n=" +
                             std::to_string(grid.n) + ")");

  // --- Gate 3: scheduler tally identity across batch widths and thread
  // counts on a real circuit problem. ---
  const int per_candidate = smoke ? 24 : 60;
  const int rounds = 2;
  bool tallies_ok = true;
  const std::vector<long long> reference =
      circuit_tallies(/*batch=*/1, /*workers=*/1, per_candidate, rounds,
                      options.seed);
  for (int batch : {2, 8}) {
    for (int workers : {1, 4}) {
      const std::vector<long long> tallies =
          circuit_tallies(batch, workers, per_candidate, rounds, options.seed);
      if (tallies != reference) {
        std::fprintf(stderr,
                     "FAIL circuit tallies at batch=%d workers=%d differ "
                     "from scalar single-thread reference\n",
                     batch, workers);
        tallies_ok = false;
      }
    }
  }
  ok = ok && tallies_ok;

  // --- Gate 4: lockstep batched transient vs per-lane scalar transients
  // at K=8 -- bit-identical waveforms and >= 1.8x throughput. ---
  const int tran_side = smoke ? 24 : 28;
  spice::Netlist ladder = tran_grid(tran_side);
  const int tran_num_resistors = 1 + 2 * tran_side * (tran_side - 1);
  const int tran_num_caps = tran_side * tran_side;
  // The per-lane activation runs once per lane per lockstep Newton round
  // (model cards must be in lane state before stamping), so it perturbs a
  // bounded device subset the way sample model cards touch a handful of
  // process parameters -- not every device in the circuit.
  const int tran_num_perturbed_r = std::min(tran_num_resistors, 33);
  const int tran_num_perturbed_c = std::min(tran_num_caps, 32);
  auto perturb_ladder = [&](std::size_t lane) {
    for (int s = 1; s < tran_num_perturbed_r; ++s) {
      ladder.resistor(s).resistance =
          1e3 *
          (1.0 + 0.07 * static_cast<double>(
                            (lane * 7 + static_cast<std::size_t>(s)) % 5));
    }
    for (int s = 0; s < tran_num_perturbed_c; ++s) {
      ladder.capacitor(s).capacitance =
          1e-12 * (1.0 + 0.05 * static_cast<double>(lane % 3));
    }
  };
  spice::TranSolver tran(ladder);
  spice::DcSolver tran_dc(ladder);
  spice::TranOptions tran_options;
  tran_options.t_stop = smoke ? 40e-9 : 50e-9;
  const std::size_t tran_lanes = 8;
  std::vector<std::vector<double>> tran_ops(tran_lanes);
  std::vector<std::vector<double>> tran_ref_time(tran_lanes),
      tran_ref_v(tran_lanes);
  const std::size_t tran_stride =
      static_cast<std::size_t>(ladder.num_nodes()) + 1;
  bool tran_identical = true;
  double tran_scalar_s = 1e300, tran_batch_s = 1e300;
  for (std::size_t l = 0; l < tran_lanes; ++l) {
    perturb_ladder(l);
    std::vector<double> sol(tran_dc.layout().size(), 0.0);
    if (tran_dc.solve({}, &sol) != spice::SolveStatus::kOk) {
      std::fprintf(stderr, "FAIL transient workload DC solve (lane %zu)\n", l);
      return 1;
    }
    tran_ops[l] = std::move(sol);
  }
  for (int rep = 0; rep < timing_reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t l = 0; l < tran_lanes; ++l) {
      perturb_ladder(l);
      if (tran.run(tran_options, &tran_ops[l]) != spice::SolveStatus::kOk) {
        std::fprintf(stderr, "FAIL scalar transient (lane %zu)\n", l);
        return 1;
      }
      if (rep == 0) {
        tran_ref_time[l] = tran.time();
        tran_ref_v[l].resize(tran.num_points() * tran_stride);
        for (std::size_t k = 0; k < tran.num_points(); ++k) {
          for (std::size_t node = 0; node < tran_stride; ++node) {
            tran_ref_v[l][k * tran_stride + node] =
                tran.voltage(k, static_cast<spice::NodeId>(node));
          }
        }
      }
    }
    tran_scalar_s = std::min(tran_scalar_s, seconds_since(start));
  }
  for (int rep = 0; rep < timing_reps; ++rep) {
    std::vector<spice::TranLaneResult> results;
    const auto start = std::chrono::steady_clock::now();
    if (!tran.run_batch(tran_options, tran_lanes,
                        [&](std::size_t l) { perturb_ladder(l); }, tran_ops,
                        &results)) {
      std::fprintf(stderr, "FAIL batched transient demoted unexpectedly\n");
      return 1;
    }
    tran_batch_s = std::min(tran_batch_s, seconds_since(start));
    if (rep == 0) {
      for (std::size_t l = 0; l < tran_lanes; ++l) {
        if (results[l].status != spice::SolveStatus::kOk ||
            !bitwise_equal(results[l].time, tran_ref_time[l]) ||
            !bitwise_equal(results[l].node_v, tran_ref_v[l])) {
          std::fprintf(stderr,
                       "FAIL batched transient lane %zu differs bitwise "
                       "from its scalar run\n",
                       l);
          tran_identical = false;
        }
      }
    }
  }
  const double tran_speedup = tran_scalar_s / tran_batch_s;
  ok = ok && tran_identical;
  if (tran_speedup < 1.8) {
    std::fprintf(stderr,
                 "FAIL batched transient K=8 speedup %.2fx < 1.8x over "
                 "per-lane scalar transients\n",
                 tran_speedup);
    ok = false;
  }
  {
    Table tran_table({"path", "time/8 lanes", "speedup"});
    char t0[64], t1[64], sp[32];
    std::snprintf(t0, sizeof(t0), "%.3g s", tran_scalar_s);
    std::snprintf(t1, sizeof(t1), "%.3g s", tran_batch_s);
    std::snprintf(sp, sizeof(sp), "%.2fx", tran_speedup);
    tran_table.add_row({"per-lane scalar run()", t0, "1.0x"});
    tran_table.add_row({"lockstep run_batch()", t1, sp});
    tran_table.print(std::cout,
                     "RC-grid transient, " + std::to_string(tran_side) + "x" +
                         std::to_string(tran_side) + ", K=8 (" +
                         (tran_identical ? "bit-identical" : "MISMATCH") +
                         ")");
  }

  // --- Gate 5: observability overhead -- with span tracing and timing
  // histograms armed (the --trace/--metrics/daemon configuration), the K=8
  // batched warm path must stay within 3% of its disarmed throughput.
  // Counters are always-on and therefore inside both measurements; this
  // gate bounds the cost of the gated instruments (clock reads, histogram
  // records, trace-ring appends) on the solver hot path.  Median of
  // per-rep paired ratios, same drift-cancelling scheme as Gate 2.
  double obs_overhead = 1.0;
  {
    std::vector<double> ratios(timing_reps);
    for (int rep = 0; rep < timing_reps; ++rep) {
      obs::set_timing_enabled(false);
      obs::set_trace_enabled(false);
      const double off_s =
          run_batched(grid, sys, 2000, timing_samples, 8, nullptr);
      obs::set_timing_enabled(true);
      obs::set_trace_enabled(true);
      const double on_s =
          run_batched(grid, sys, 2000, timing_samples, 8, nullptr);
      ratios[rep] = on_s / off_s;
    }
    obs::set_timing_enabled(false);
    obs::set_trace_enabled(false);
    obs::trace_reset();
    std::sort(ratios.begin(), ratios.end());
    obs_overhead = ratios[ratios.size() / 2];
    if (obs_overhead > 1.03) {
      std::fprintf(stderr,
                   "FAIL observability overhead %.4fx > 1.03x on the K=8 "
                   "batched warm path with tracing+timing armed\n",
                   obs_overhead);
      ok = false;
    }
    Table obs_table({"instrumentation", "overhead"});
    char ov[32];
    std::snprintf(ov, sizeof(ov), "%.4fx", obs_overhead);
    obs_table.add_row({"tracing + timing armed vs disarmed", ov});
    obs_table.print(std::cout, "Observability overhead, K=8 warm path");
  }

  std::cout << "gates: bitwise per-sample identity (K=2/4/8), >=" << (k8_wide_width >= 4 ? 3 : 2)
            << "x samples/sec at K=8 (kernel width " << k8_wide_width
            << "), scheduler tallies independent of batch width and thread "
               "count ("
            << (tallies_ok ? "ok" : "FAIL")
            << "), batched transient bit-identical and >=1.8x at K=8 ("
            << (tran_identical && tran_speedup >= 1.8 ? "ok" : "FAIL")
            << "), observability overhead <=1.03x ("
            << (obs_overhead <= 1.03 ? "ok" : "FAIL") << ")\n";

  char tail[320];
  std::snprintf(tail, sizeof(tail),
                ",\"k8_speedup\":%.2f,\"k8_kernel_width\":%d,"
                "\"tran_speedup\":%.2f,\"tran_identical\":%s,"
                "\"tally_identical\":%s,\"obs_overhead\":%.4f",
                k8_wide_speedup, k8_wide_width, tran_speedup,
                tran_identical ? "true" : "false",
                tallies_ok ? "true" : "false", obs_overhead);
  if (!bench::write_bench_json(
          options.json, "bench_micro_batch",
          "\"grid_n\":" + std::to_string(grid.n) + ",\"widths\":[" +
              json_rows + "]" + tail)) {
    return 1;
  }
  return ok ? 0 : 1;
}
