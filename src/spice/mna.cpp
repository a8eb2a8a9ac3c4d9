#include "src/spice/mna.hpp"

#include <algorithm>
#include <complex>
#include <cstdlib>
#include <type_traits>

#include "src/common/error.hpp"
#include "src/common/failpoint.hpp"
#include "src/common/failure_ladder.hpp"
#include "src/obs/metrics.hpp"

namespace moheco::spice {

MnaLayout::MnaLayout(const Netlist& netlist) {
  num_nodes_ = static_cast<std::size_t>(netlist.num_nodes());
  std::size_t next = num_nodes_;
  vsource_branch_.resize(netlist.vsources().size());
  for (std::size_t i = 0; i < vsource_branch_.size(); ++i) {
    vsource_branch_[i] = next++;
  }
  vcvs_branch_.resize(netlist.vcvs().size());
  for (std::size_t i = 0; i < vcvs_branch_.size(); ++i) {
    vcvs_branch_[i] = next++;
  }
  inductor_branch_.resize(netlist.inductors().size());
  for (std::size_t i = 0; i < inductor_branch_.size(); ++i) {
    inductor_branch_[i] = next++;
  }
  size_ = next;
}

template <typename Scalar>
void MnaSystem<Scalar>::reset(std::size_t n) {
  n_ = n;
  pattern_ready_ = false;
  dense_fallback_ = false;
  rhs_.assign(n, Scalar{});
  builder_.reset(n);
  capture_values_.clear();
  slots_.clear();
  sparse_a_ = {};
  sparse_lu_ = {};
}

template <typename Scalar>
void MnaSystem<Scalar>::begin_assembly() {
  std::fill(rhs_.begin(), rhs_.end(), Scalar{});
  cursor_ = 0;
  if (pattern_ready_) sparse_a_.clear_values();
}

template <typename Scalar>
void MnaSystem<Scalar>::add_cold(int r, int c, Scalar v) {
  builder_.add(r, c);
  capture_values_.push_back(v);
}

template <typename Scalar>
void MnaSystem<Scalar>::replay_overflow() const {
  require(false, "MnaSystem: stamp sequence grew beyond the captured pattern");
  std::abort();  // unreachable; require always throws on false
}

template <typename Scalar>
void MnaSystem<Scalar>::end_assembly() {
  if (!pattern_ready_) {
    sparse_a_ = builder_.template finalize<Scalar>(&slots_);
    for (std::size_t i = 0; i < capture_values_.size(); ++i) {
      sparse_a_.value(slots_[i]) += capture_values_[i];
    }
    capture_values_.clear();
    capture_values_.shrink_to_fit();
    builder_.reset(0);
    pattern_ready_ = true;
    return;
  }
  // Slot replay only works when every assembly stamps the same sequence.
  require(cursor_ == slots_.size(),
          "MnaSystem: stamp sequence diverged from the captured pattern");
}

template <typename Scalar>
bool MnaSystem<Scalar>::factor() {
  // solver.factors counts every factorization (real DC/transient and
  // complex AC); solver.complex_factors counts the AC share alone.
  static obs::Counter& factors = obs::registry().counter("solver.factors");
  factors.add(1);
  if constexpr (std::is_same_v<Scalar, std::complex<double>>) {
    static obs::Counter& complex_factors =
        obs::registry().counter("solver.complex_factors");
    complex_factors.add(1);
  }
  dense_fallback_ = false;
  require(pattern_ready_, "MnaSystem::factor: no assembly captured");
  if (!fail::should_fail(fail::Site::kSparseFactor) &&
      sparse_lu_.factor_with_reuse(sparse_a_)) {
    return true;
  }
  // Degradation ladder: a sparse pivot breakdown retries the same assembly
  // through dense LU with full partial pivoting before the caller gives the
  // sample up as infeasible.  Scatter-and-factor is O(n^2)+O(n^3) -- fine
  // for a rung that only runs on breakdowns.
  if (fail::should_fail(fail::Site::kDenseFactor)) return false;
  dense_a_ = sparse_a_.to_dense();
  if (!dense_lu_.factor(dense_a_)) return false;
  fail::ladder_count(fail::Ladder::kSparseToDense);
  dense_fallback_ = true;
  return true;
}

template <typename Scalar>
void MnaSystem<Scalar>::solve(std::vector<Scalar>& b) const {
  static obs::Counter& solves = obs::registry().counter("solver.solves");
  solves.add(1);
  if (dense_fallback_) {
    dense_lu_.solve(b);
  } else {
    sparse_lu_.solve(b);
  }
}

template class MnaSystem<double>;
template class MnaSystem<std::complex<double>>;

}  // namespace moheco::spice
