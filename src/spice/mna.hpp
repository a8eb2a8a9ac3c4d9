// Modified Nodal Analysis layout: maps circuit unknowns (node voltages and
// branch currents of voltage-defined elements) to matrix indices.
//
// The layout is computed once per netlist and shared by the DC, AC and
// transient solvers, so a DC solution vector can warm-start subsequent DC
// solves and feed the AC linearization directly.
//
// MnaSystem adds the assembled-system storage: a CSC sparse matrix + sparse
// LU with cached symbolic analysis.  The first assembly records the stamp
// sequence and resolves every stamp to a stable value slot; later
// assemblies replay the identical sequence against those slots, so the
// sparse pattern -- and the symbolic factorization derived from it -- is
// fixed at netlist-build time and survives Newton iterations, transient
// timesteps and Monte-Carlo model-card perturbations alike.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/linalg/lu.hpp"
#include "src/linalg/matrix.hpp"
#include "src/linalg/sparse.hpp"
#include "src/spice/netlist.hpp"

namespace moheco::spice {

class MnaLayout {
 public:
  explicit MnaLayout(const Netlist& netlist);

  /// Total unknown count: nodes + branch currents.
  std::size_t size() const { return size_; }
  std::size_t num_nodes() const { return num_nodes_; }

  /// Matrix index of node `n`'s voltage; -1 for ground.
  int node_index(NodeId n) const { return n - 1; }

  /// Matrix index of the branch current of vsource/vcvs/inductor `i`.
  std::size_t vsource_branch(std::size_t i) const { return vsource_branch_[i]; }
  std::size_t vcvs_branch(std::size_t i) const { return vcvs_branch_[i]; }
  std::size_t inductor_branch(std::size_t i) const { return inductor_branch_[i]; }

 private:
  std::size_t num_nodes_ = 0;
  std::size_t size_ = 0;
  std::vector<std::size_t> vsource_branch_;
  std::vector<std::size_t> vcvs_branch_;
  std::vector<std::size_t> inductor_branch_;
};

/// Assembled MNA system (matrix + rhs) over a sparse LU.
///
/// Assembly protocol, repeated identically every time the system is
/// (re)stamped:
///
///   sys.begin_assembly();
///   Stamper<Scalar> stamper(sys);
///   ... stamp devices (the sequence of add() calls must not change) ...
///   sys.end_assembly();
///   x = sys.rhs();
///   if (!sys.factor()) ...singular...;
///   sys.solve(x);
///
/// The first begin/end pair captures the pattern; from then on stamps are
/// slot replays and factor() is a numeric-only refactorization against the
/// cached symbolic analysis.
template <typename Scalar>
class MnaSystem {
 public:
  MnaSystem() = default;

  /// Sizes the system.  Discards any captured pattern; call once per
  /// (netlist, analysis) pairing.
  void reset(std::size_t n);

  std::size_t size() const { return n_; }

  void begin_assembly();
  /// Adds `v` at (r, c); r and c must be valid indices (the Stamper elides
  /// ground).  During the first assembly this records the pattern; later
  /// assemblies replay the recorded slot sequence.  The replay path is the
  /// innermost loop of every Monte-Carlo sample, so it is inlined here;
  /// pattern capture takes the cold out-of-line path.
  void add(int r, int c, Scalar v) {
    if (pattern_ready_) [[likely]] {
      if (cursor_ >= slots_.size()) [[unlikely]] replay_overflow();
      const std::uint32_t slot = slots_[cursor_++];
      // Batched lanes accumulate into the compact per-lane staging buffer
      // (same memory behavior as the scalar replay: ~8 slots per cache
      // line); factor_batch() hands the lane-major buffers straight to the
      // batched LU's gathering kernels.  Stamping into a slot-major
      // `[slot * K + lane]` array would touch a separate cache line per
      // add().
      if (batch_lanes_ > 0) {
        lane_scratch_[lane_base_ + slot] += v;
      } else {
        sparse_a_.value(slot) += v;
      }
      return;
    }
    add_cold(r, c, v);
  }
  void rhs_add(int r, Scalar v) {
    if (batch_lanes_ > 0) {
      lane_rhs_scratch_[static_cast<std::size_t>(r)] += v;
    } else {
      rhs_[static_cast<std::size_t>(r)] += v;
    }
  }
  void end_assembly();

  std::vector<Scalar>& rhs() { return rhs_; }

  /// Factors the assembled matrix; false when numerically singular.  A
  /// sparse pivot breakdown first retries the assembly through dense LU
  /// (the sparse_to_dense degradation rung) before reporting failure;
  /// solve() then follows the fallback factorization.
  bool factor();
  /// Solves in place against the last successful factor().
  void solve(std::vector<Scalar>& b) const;

  // --- Batched (SoA) assembly over the captured pattern -----------------
  //
  // K process samples of one symbolic pattern assemble and factor at once:
  // every lane replays the identical stamp sequence straight into its lane
  // of the slot-major SoA value array (`[slot * K + lane]`) -- the exact
  // layout the SIMD kernels consume, so factor_batch() hands the assembly
  // to linalg::SparseLuBatch with no transpose or copy in between.
  // Per-lane accumulation order matches the scalar replay, so per-lane
  // results are bit-identical to the scalar path.  Protocol, per batch:
  //
  //   sys.begin_batch(K);
  //   for each (active) lane l {
  //     sys.begin_lane(l);
  //     ... stamp lane l (same add()/rhs_add() sequence as scalar) ...
  //     sys.end_lane();
  //   }
  //   if (!sys.factor_batch()) { sys.end_batch(); /* scalar fallback */ }
  //   x = sys.batch_rhs();
  //   sys.solve_batch(x);
  //   ... (more begin_lane rounds: lanes not restamped keep their values,
  //        which stay factorable -- they already factored last round) ...
  //   sys.end_batch();
  //
  // Callers check batch_ready() and fall back to a scalar per-lane loop
  // until a scalar factor() has produced the symbolic analysis.

  /// True when batched assembly is available: pattern captured and a valid
  /// symbolic analysis from a prior scalar factor().
  bool batch_ready() const {
    return pattern_ready_ && sparse_lu_.analyzed();
  }
  /// Opens a K-lane batched assembly (zeroes all lanes).  Requires
  /// batch_ready().  Scalar assemblies are rejected until end_batch().
  void begin_batch(std::size_t lanes);
  /// Starts lane `lane`'s replay of the stamp sequence (zeroes just that
  /// lane's values and rhs); stamps arrive via the normal add()/rhs_add().
  void begin_lane(std::size_t lane);
  void end_lane();
  /// Numeric refactorization of every lane with the recorded pivot order;
  /// false when any lane breaks down (the batch is then unusable and the
  /// caller must replay the lanes through the scalar path in order).
  bool factor_batch();
  /// Solves the SoA right-hand sides (`b[i * lanes + lane]`) in place
  /// against the last successful factor_batch().
  void solve_batch(std::vector<Scalar>& b) const;
  /// SoA right-hand-side vector of the current batch (size() * lanes).
  const std::vector<Scalar>& batch_rhs() const { return batch_rhs_; }
  std::size_t batch_lanes() const { return batch_lanes_; }
  /// Closes the batch and returns to scalar assembly mode.
  void end_batch() { batch_lanes_ = 0; }

 private:
  /// Pattern-capture leg of add().
  void add_cold(int r, int c, Scalar v);
  [[noreturn]] void replay_overflow() const;

  std::size_t n_ = 0;
  bool pattern_ready_ = false;
  /// Last factor() went through the dense-LU degradation rung (sparse
  /// pivot breakdown); solve() follows it.
  bool dense_fallback_ = false;
  std::vector<Scalar> rhs_;

  // Capture state (first assembly only), then slot replay.
  linalg::SparseBuilder builder_;
  std::vector<Scalar> capture_values_;
  std::vector<std::uint32_t> slots_;
  std::size_t cursor_ = 0;
  linalg::SparseMatrix<Scalar> sparse_a_;
  linalg::SparseLuSolver<Scalar> sparse_lu_;

  // The sparse_to_dense rung's scatter target and factorization.
  linalg::Matrix<Scalar> dense_a_;
  linalg::LuSolver<Scalar> dense_lu_;

  // Batched mode (0 lanes means scalar mode; the storage is kept across
  // batches to avoid reallocation on the hot path).  Each lane assembles
  // into its compact lane-major region of lane_scratch_
  // (`[lane * nnz + slot]`, scalar-replay memory behavior) and
  // factor_batch() passes the buffers to the batched LU's lane-gathering
  // kernels unchanged, so frozen lanes (whose scratch regions were not
  // restamped) keep their last factorable assembly.  batch_rhs_ is SoA
  // (`[i * K + lane]`) throughout, matching solve_batch().
  std::size_t batch_lanes_ = 0;
  std::size_t batch_lane_ = 0;
  std::size_t lane_base_ = 0;
  std::vector<Scalar> batch_rhs_;
  std::vector<Scalar> lane_scratch_;
  std::vector<Scalar> lane_rhs_scratch_;
  std::vector<char> batch_lane_fresh_;  ///< no begin_lane() since begin_batch
  linalg::SparseLuBatch<Scalar> batch_lu_;
};

extern template class MnaSystem<double>;
extern template class MnaSystem<std::complex<double>>;

/// Helper for stamping into an MnaSystem with ground (index -1) elision.
template <typename Scalar>
class Stamper {
 public:
  explicit Stamper(MnaSystem<Scalar>& sys) : sys_(&sys) {}

  /// Adds `g` between matrix rows/cols (r, c); ignores ground (-1).
  void add(int r, int c, Scalar g) {
    if (r < 0 || c < 0) return;
    sys_->add(r, c, g);
  }
  /// Adds a two-terminal admittance `g` between nodes with matrix indices
  /// (i, j): the classic 4-entry stamp.
  void conductance(int i, int j, Scalar g) {
    add(i, i, g);
    add(j, j, g);
    add(i, j, -g);
    add(j, i, -g);
  }
  /// Transconductance gm from control pair (cp, cn) injecting current into
  /// (np -> out of nn).
  void transconductance(int np, int nn, int cp, int cn, Scalar gm) {
    add(np, cp, gm);
    add(np, cn, -gm);
    add(nn, cp, -gm);
    add(nn, cn, gm);
  }
  void rhs_add(int r, Scalar value) {
    if (r < 0) return;
    sys_->rhs_add(r, value);
  }

 private:
  MnaSystem<Scalar>* sys_;
};

}  // namespace moheco::spice
