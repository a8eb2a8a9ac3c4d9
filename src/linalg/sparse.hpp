// Sparse linear algebra for the MNA hot path: CSC storage with stable value
// slots, a Markowitz-style fill-reducing ordering, and a left-looking
// (Gilbert-Peierls) sparse LU with partial pivoting.
//
// The solver splits the work the way production SPICE engines (Sparse 1.x,
// KLU) do:
//   * symbolic analysis -- fill-reducing elimination order plus the L/U
//     fill pattern -- runs once per matrix *pattern*, and an MNA pattern is
//     fixed at netlist-build time;
//   * numeric (re)factorization reuses those structures and touches only
//     values, which is what every Newton iteration, transient timestep and
//     Monte-Carlo sample pays.
// refactor() keeps the recorded pivot sequence and reports breakdown (a
// pivot that grew numerically unacceptable) so the caller can fall back to
// a fresh fully-pivoted factorization; factor_with_reuse() packages that
// policy.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/linalg/matrix.hpp"

namespace moheco::linalg {

template <typename Scalar>
class SparseMatrix;

/// Collects (row, col) stamp positions for a square pattern.  Duplicate
/// positions are allowed (they merge into one slot at finalize time), so a
/// stamping loop can record its natural add sequence and later replay the
/// same sequence against the value slots finalize() hands back.
class SparseBuilder {
 public:
  SparseBuilder() = default;
  explicit SparseBuilder(std::size_t n) : n_(n) {}

  void reset(std::size_t n) {
    n_ = n;
    seq_.clear();
  }

  /// Records one stamp position; rows/cols must be in [0, n).
  void add(int r, int c) {
    seq_.emplace_back(r, c);
  }

  std::size_t size() const { return n_; }
  std::size_t num_adds() const { return seq_.size(); }

  /// Builds the deduplicated CSC matrix (values zeroed) and, when
  /// `slot_of_add` is non-null, the value-slot index of every recorded
  /// add() in order, so the caller can replay the identical stamp sequence
  /// with `matrix.value(slots[k]) += v`.
  template <typename Scalar>
  SparseMatrix<Scalar> finalize(std::vector<std::uint32_t>* slot_of_add) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::pair<int, int>> seq_;
};

/// Square CSC sparse matrix with a fixed pattern and mutable values.
template <typename Scalar>
class SparseMatrix {
 public:
  SparseMatrix() = default;

  std::size_t size() const { return n_; }
  std::size_t nnz() const { return row_idx_.size(); }

  void clear_values() { std::fill(values_.begin(), values_.end(), Scalar{}); }
  Scalar& value(std::size_t slot) { return values_[slot]; }
  const Scalar& value(std::size_t slot) const { return values_[slot]; }

  /// col_ptr()[c] .. col_ptr()[c+1] indexes the entries of column c; rows
  /// are sorted ascending within a column.
  const std::vector<int>& col_ptr() const { return col_ptr_; }
  const std::vector<int>& row_idx() const { return row_idx_; }
  const std::vector<Scalar>& values() const { return values_; }

  Matrix<Scalar> to_dense() const {
    Matrix<Scalar> d(n_, n_);
    for (std::size_t c = 0; c < n_; ++c) {
      for (int p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
        d(static_cast<std::size_t>(row_idx_[p]), c) = values_[p];
      }
    }
    return d;
  }

 private:
  friend class SparseBuilder;
  std::size_t n_ = 0;
  std::vector<int> col_ptr_;   // n + 1
  std::vector<int> row_idx_;   // nnz
  std::vector<Scalar> values_; // nnz
};

/// Left-looking sparse LU (P A Q = L U) with partial pivoting and a cached
/// symbolic analysis.  One solver instance serves one matrix pattern.
template <typename Scalar>
class SparseLuSolver {
 public:
  /// Full factorization: computes the fill-reducing column order (once per
  /// pattern), discovers the fill pattern via depth-first reachability and
  /// pivots numerically.  Returns false when the matrix is singular.
  bool factor(const SparseMatrix<Scalar>& a);

  /// Numeric-only refactorization replaying the elimination structures and
  /// pivot sequence of the last successful factor().  Returns false on
  /// pivot breakdown (the fixed pivot lost too much magnitude); the
  /// factorization is then invalid and factor() must be rerun.
  bool refactor(const SparseMatrix<Scalar>& a);

  /// refactor() when an analysis is available, factor() otherwise or when
  /// the replayed pivots break down.  This is the hot-path entry point.
  bool factor_with_reuse(const SparseMatrix<Scalar>& a);

  /// Solves L U x = P b Q^T for the most recent factorization; `b` is
  /// overwritten with the solution.
  void solve(std::vector<Scalar>& b) const;

  bool analyzed() const { return analyzed_; }
  /// Entries in L + U (fill), for diagnostics and the micro benches.
  std::size_t factor_nnz() const { return lrow_.size() + uidx_.size() + n_; }
  long long full_factorizations() const { return full_factorizations_; }
  long long refactorizations() const { return refactorizations_; }

 private:
  void analyze_ordering(const SparseMatrix<Scalar>& a);
  int reach(const SparseMatrix<Scalar>& a, int col, int mark, int top);

  std::size_t n_ = 0;
  bool ordered_ = false;
  bool analyzed_ = false;
  long long full_factorizations_ = 0;
  long long refactorizations_ = 0;

  std::vector<int> q_;     ///< column order: step k eliminates column q_[k]
  std::vector<int> prow_;  ///< pivot (original) row chosen at step k
  std::vector<int> pinv_;  ///< original row -> step; -1 while unpivoted

  // L stored by elimination step: strictly-below-pivot multipliers with
  // *original* row indices (unit diagonal implicit), so a refactor can
  // scatter/update in original row space.
  std::vector<int> lptr_, lrow_;
  std::vector<Scalar> lval_;
  // U stored by elimination step: contributions from earlier steps j < k in
  // the exact topological order the factorization applied them (refactor
  // replays this order verbatim); the diagonal lives in udiag_.
  std::vector<int> uptr_, uidx_;
  std::vector<Scalar> uval_;
  std::vector<Scalar> udiag_;

  // Workspaces (mutable so solve() stays const like LuSolver::solve).
  std::vector<Scalar> x_;
  std::vector<int> flag_, stack_, child_, topo_;
  mutable std::vector<Scalar> y_, work_;
};

extern template class SparseLuSolver<double>;
extern template class SparseLuSolver<std::complex<double>>;

}  // namespace moheco::linalg
