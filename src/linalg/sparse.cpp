#include "src/linalg/sparse.hpp"

#include <algorithm>
#include <cmath>

namespace moheco::linalg {
namespace {

double magnitude(double x) { return std::fabs(x); }
double magnitude(const std::complex<double>& x) { return std::abs(x); }

/// Keep the matrix diagonal as pivot when it is within this factor of the
/// column's best magnitude; staying near the symbolic (diagonal) ordering
/// keeps fill close to what the min-degree analysis predicted.
constexpr double kDiagPivotThreshold = 0.1;

/// refactor() declares pivot breakdown when a replayed pivot falls below
/// this fraction of its column's magnitude: element growth stays <= 1e4, so
/// a refactorized solve keeps ~12 significant digits, and anything worse
/// falls back to a fresh fully-pivoted factor().
constexpr double kRefactorPivotTol = 1e-4;

/// Elimination-graph size cap for the min-degree ordering: past this many
/// edges the remaining (nearly dense) nodes are appended in degree order,
/// bounding analysis cost on pathological patterns.
constexpr std::size_t kOrderingEdgeCap = 8u << 20;

}  // namespace

template <typename Scalar>
SparseMatrix<Scalar> SparseBuilder::finalize(
    std::vector<std::uint32_t>* slot_of_add) const {
  for (const auto& [r, c] : seq_) {
    require(r >= 0 && c >= 0 && static_cast<std::size_t>(r) < n_ &&
                static_cast<std::size_t>(c) < n_,
            "SparseBuilder: stamp position out of range");
  }
  // Deduplicate to sorted (col, row) pairs -> CSC.
  std::vector<std::pair<int, int>> entries;
  entries.reserve(seq_.size());
  for (const auto& [r, c] : seq_) entries.emplace_back(c, r);
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());

  SparseMatrix<Scalar> m;
  m.n_ = n_;
  m.col_ptr_.assign(n_ + 1, 0);
  m.row_idx_.resize(entries.size());
  m.values_.assign(entries.size(), Scalar{});
  for (const auto& [c, r] : entries) ++m.col_ptr_[static_cast<std::size_t>(c) + 1];
  for (std::size_t c = 0; c < n_; ++c) m.col_ptr_[c + 1] += m.col_ptr_[c];
  for (std::size_t i = 0; i < entries.size(); ++i) {
    m.row_idx_[i] = entries[i].second;  // sorted by (c, r): rows ascending
  }

  if (slot_of_add != nullptr) {
    slot_of_add->clear();
    slot_of_add->reserve(seq_.size());
    for (const auto& [r, c] : seq_) {
      const auto first = entries.begin() + m.col_ptr_[static_cast<std::size_t>(c)];
      const auto last = entries.begin() + m.col_ptr_[static_cast<std::size_t>(c) + 1];
      const auto it = std::lower_bound(first, last, std::make_pair(c, r));
      slot_of_add->push_back(
          static_cast<std::uint32_t>(it - entries.begin()));
    }
  }
  return m;
}

template SparseMatrix<double> SparseBuilder::finalize<double>(
    std::vector<std::uint32_t>*) const;
template SparseMatrix<std::complex<double>>
SparseBuilder::finalize<std::complex<double>>(std::vector<std::uint32_t>*) const;

template <typename Scalar>
void SparseLuSolver<Scalar>::analyze_ordering(const SparseMatrix<Scalar>& a) {
  // Markowitz-style greedy minimum degree on the symmetrized pattern
  // A + A^T (for a diagonal pivot the Markowitz product is degree^2, so the
  // orderings coincide), updating the elimination graph as nodes eliminate
  // into cliques.
  const int n = static_cast<int>(a.size());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    for (int p = a.col_ptr()[c]; p < a.col_ptr()[c + 1]; ++p) {
      const int r = a.row_idx()[p];
      if (r == c) continue;
      adj[static_cast<std::size_t>(r)].push_back(c);
      adj[static_cast<std::size_t>(c)].push_back(r);
    }
  }
  std::size_t edges = 0;
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    edges += list.size();
  }

  q_.clear();
  q_.reserve(n);
  std::vector<char> alive(static_cast<std::size_t>(n), 1);
  std::vector<int> mark(static_cast<std::size_t>(n), -1);
  std::vector<int> live;
  int stamp = 0;
  while (static_cast<int>(q_.size()) < n) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      if (best < 0 ||
          adj[static_cast<std::size_t>(v)].size() <
              adj[static_cast<std::size_t>(best)].size()) {
        best = v;
      }
    }
    alive[static_cast<std::size_t>(best)] = 0;
    q_.push_back(best);
    if (edges > kOrderingEdgeCap) {
      // Graph went dense: finish in (stale) degree order instead of paying
      // quadratic clique growth for an ordering that no longer matters.
      std::vector<int> rest;
      for (int v = 0; v < n; ++v) {
        if (alive[v]) rest.push_back(v);
      }
      std::stable_sort(rest.begin(), rest.end(), [&](int u, int v) {
        return adj[static_cast<std::size_t>(u)].size() <
               adj[static_cast<std::size_t>(v)].size();
      });
      q_.insert(q_.end(), rest.begin(), rest.end());
      break;
    }
    live.clear();
    for (int u : adj[static_cast<std::size_t>(best)]) {
      if (alive[static_cast<std::size_t>(u)]) live.push_back(u);
    }
    // Eliminating `best` joins its live neighbors into a clique.
    for (int u : live) {
      auto& list = adj[static_cast<std::size_t>(u)];
      edges -= list.size();
      std::size_t kept = 0;
      for (int w : list) {
        if (alive[static_cast<std::size_t>(w)]) list[kept++] = w;
      }
      list.resize(kept);
      ++stamp;
      for (int w : list) mark[static_cast<std::size_t>(w)] = stamp;
      mark[static_cast<std::size_t>(u)] = stamp;
      for (int w : live) {
        if (mark[static_cast<std::size_t>(w)] != stamp) list.push_back(w);
      }
      edges += list.size();
    }
  }
}

template <typename Scalar>
int SparseLuSolver<Scalar>::reach(const SparseMatrix<Scalar>& a, int col,
                                  int mark, int top) {
  // Depth-first reachability of the rows of A(:, col) through the graph of
  // already-computed L columns; emits reached rows into topo_[top'..top) in
  // topological (reverse-finish) order.
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_idx();
  for (int p0 = cp[col]; p0 < cp[col + 1]; ++p0) {
    if (flag_[ri[p0]] == mark) continue;
    int head = 0;
    stack_[0] = ri[p0];
    while (head >= 0) {
      const int v = stack_[head];
      const int j = pinv_[v];
      if (flag_[v] != mark) {
        flag_[v] = mark;
        child_[head] = j >= 0 ? lptr_[j] : 0;
      }
      bool descended = false;
      if (j >= 0) {
        const int end = lptr_[j + 1];
        int p = child_[head];
        while (p < end) {
          const int w = lrow_[p];
          ++p;
          if (flag_[w] != mark) {
            child_[head] = p;
            stack_[++head] = w;
            descended = true;
            break;
          }
        }
        if (!descended) child_[head] = p;
      }
      if (!descended) {
        --head;
        topo_[--top] = v;
      }
    }
  }
  return top;
}

template <typename Scalar>
bool SparseLuSolver<Scalar>::factor(const SparseMatrix<Scalar>& a) {
  const std::size_t n = a.size();
  require(n_ == 0 || n_ == n, "SparseLuSolver: pattern size changed");
  n_ = n;
  if (!ordered_) {
    analyze_ordering(a);
    ordered_ = true;
  }
  analyzed_ = false;
  ++full_factorizations_;

  prow_.assign(n, -1);
  pinv_.assign(n, -1);
  lptr_.assign(1, 0);
  lrow_.clear();
  lval_.clear();
  uptr_.assign(1, 0);
  uidx_.clear();
  uval_.clear();
  udiag_.assign(n, Scalar{});
  x_.assign(n, Scalar{});
  flag_.assign(n, -1);
  stack_.resize(n);
  child_.resize(n);
  topo_.resize(n);

  const auto& cp = a.col_ptr();
  const auto& ri = a.row_idx();
  const auto& av = a.values();
  const int ni = static_cast<int>(n);

  for (int k = 0; k < ni; ++k) {
    const int col = q_[k];
    const int top = reach(a, col, k, ni);
    for (int p = cp[col]; p < cp[col + 1]; ++p) x_[ri[p]] = av[p];

    // Left-looking update: consume earlier pivots in topological order.
    for (int t = top; t < ni; ++t) {
      const int r = topo_[t];
      const int j = pinv_[r];
      if (j < 0) continue;
      const Scalar xj = x_[r];
      uidx_.push_back(j);
      uval_.push_back(xj);
      if (xj != Scalar{}) {
        for (int p = lptr_[j]; p < lptr_[j + 1]; ++p) {
          x_[lrow_[p]] -= lval_[p] * xj;
        }
      }
    }

    // Partial pivot over the unpivoted reached rows, preferring the
    // diagonal when it is competitive.
    int prow = -1;
    double best = -1.0;
    for (int t = top; t < ni; ++t) {
      const int r = topo_[t];
      if (pinv_[r] >= 0) continue;
      const double m = magnitude(x_[r]);
      if (m > best) {
        best = m;
        prow = r;
      }
    }
    if (prow < 0 || !(best > 0.0) || !std::isfinite(best)) return false;
    if (pinv_[col] < 0 && flag_[col] == k) {
      const double dm = magnitude(x_[col]);
      if (dm >= kDiagPivotThreshold * best) prow = col;
    }
    const Scalar piv = x_[prow];
    pinv_[prow] = k;
    prow_[k] = prow;
    udiag_[k] = piv;
    for (int t = top; t < ni; ++t) {
      const int r = topo_[t];
      if (pinv_[r] >= 0) continue;  // pivot row and consumed U rows
      // Zero multipliers are kept: the pattern must stay the elimination
      // closure so refactor() can replay it against any values.
      lrow_.push_back(r);
      lval_.push_back(x_[r] / piv);
    }
    lptr_.push_back(static_cast<int>(lrow_.size()));
    uptr_.push_back(static_cast<int>(uidx_.size()));
    for (int t = top; t < ni; ++t) x_[topo_[t]] = Scalar{};
  }
  analyzed_ = true;
  return true;
}

template <typename Scalar>
bool SparseLuSolver<Scalar>::refactor(const SparseMatrix<Scalar>& a) {
  if (!analyzed_) return false;
  require(a.size() == n_, "SparseLuSolver::refactor: size mismatch");
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_idx();
  const auto& av = a.values();
  const int ni = static_cast<int>(n_);

  for (int k = 0; k < ni; ++k) {
    const int col = q_[k];
    for (int p = cp[col]; p < cp[col + 1]; ++p) x_[ri[p]] = av[p];
    for (int p = uptr_[k]; p < uptr_[k + 1]; ++p) {
      const int j = uidx_[p];
      const Scalar xj = x_[prow_[j]];
      uval_[p] = xj;
      if (xj != Scalar{}) {
        for (int s = lptr_[j]; s < lptr_[j + 1]; ++s) {
          x_[lrow_[s]] -= lval_[s] * xj;
        }
      }
    }
    const int prow = prow_[k];
    const Scalar piv = x_[prow];
    double colmax = magnitude(piv);
    for (int s = lptr_[k]; s < lptr_[k + 1]; ++s) {
      colmax = std::max(colmax, magnitude(x_[lrow_[s]]));
    }
    if (!std::isfinite(colmax) || !(magnitude(piv) > 0.0) ||
        magnitude(piv) < kRefactorPivotTol * colmax) {
      // Breakdown: the recorded pivot sequence is numerically unusable for
      // these values.  x_ is left dirty; factor() resets it.
      analyzed_ = false;
      return false;
    }
    udiag_[k] = piv;
    for (int s = lptr_[k]; s < lptr_[k + 1]; ++s) {
      lval_[s] = x_[lrow_[s]] / piv;
    }
    // Restore the all-zero workspace invariant over this column's pattern.
    for (int p = uptr_[k]; p < uptr_[k + 1]; ++p) {
      x_[prow_[uidx_[p]]] = Scalar{};
    }
    x_[prow] = Scalar{};
    for (int s = lptr_[k]; s < lptr_[k + 1]; ++s) x_[lrow_[s]] = Scalar{};
  }
  ++refactorizations_;
  return true;
}

template <typename Scalar>
bool SparseLuSolver<Scalar>::factor_with_reuse(const SparseMatrix<Scalar>& a) {
  if (analyzed_ && refactor(a)) return true;
  return factor(a);
}

template <typename Scalar>
void SparseLuSolver<Scalar>::solve(std::vector<Scalar>& b) const {
  require(analyzed_, "SparseLuSolver::solve: no valid factorization");
  require(b.size() == n_, "SparseLuSolver::solve: dimension mismatch");
  work_ = b;
  y_.resize(n_);
  // Forward: L z = P b, column-oriented over original row indices.
  for (std::size_t k = 0; k < n_; ++k) {
    const Scalar zk = work_[static_cast<std::size_t>(prow_[k])];
    y_[k] = zk;
    if (zk != Scalar{}) {
      for (int p = lptr_[k]; p < lptr_[k + 1]; ++p) {
        work_[static_cast<std::size_t>(lrow_[p])] -= lval_[p] * zk;
      }
    }
  }
  // Backward: U x' = z, column-oriented in elimination-step space.
  for (std::size_t k = n_; k-- > 0;) {
    const Scalar xk = y_[k] / udiag_[k];
    y_[k] = xk;
    if (xk != Scalar{}) {
      for (int p = uptr_[k]; p < uptr_[k + 1]; ++p) {
        y_[static_cast<std::size_t>(uidx_[p])] -= uval_[p] * xk;
      }
    }
  }
  for (std::size_t k = 0; k < n_; ++k) {
    b[static_cast<std::size_t>(q_[k])] = y_[k];
  }
}

template class SparseLuSolver<double>;
template class SparseLuSolver<std::complex<double>>;

}  // namespace moheco::linalg
