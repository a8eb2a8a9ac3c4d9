#include "src/spice/mna.hpp"

#include <algorithm>
#include <complex>
#include <cstdlib>
#include <type_traits>

#include "src/common/error.hpp"
#include "src/common/failpoint.hpp"
#include "src/common/failure_ladder.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

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
  batch_lanes_ = 0;
  lane_scratch_.clear();
  batch_rhs_.clear();
}

template <typename Scalar>
void MnaSystem<Scalar>::begin_assembly() {
  require(batch_lanes_ == 0,
          "MnaSystem: scalar assembly inside an open batch (end_batch first)");
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
void MnaSystem<Scalar>::begin_batch(std::size_t lanes) {
  require(batch_ready(), "MnaSystem::begin_batch: batched assembly needs an "
                         "analyzed captured pattern");
  require(lanes > 0, "MnaSystem::begin_batch: need at least one lane");
  batch_lanes_ = lanes;
  batch_lane_ = 0;
  lane_base_ = 0;
  batch_rhs_.resize(n_ * lanes);
  lane_scratch_.resize(sparse_a_.nnz() * lanes);
  lane_rhs_scratch_.resize(n_);
  // Lanes start "fresh": their scratch regions hold stale values from the
  // previous batch until their first begin_lane() zero-fills them (the
  // common all-lanes-restamped case then pays exactly one fill per lane).
  // factor_batch() zero-fills any lane still fresh so a never-stamped lane
  // reads as singular, not as stale garbage.
  batch_lane_fresh_.assign(lanes, 1);
}

template <typename Scalar>
void MnaSystem<Scalar>::begin_lane(std::size_t lane) {
  require(batch_lanes_ > 0 && lane < batch_lanes_,
          "MnaSystem::begin_lane: lane out of range (begin_batch first)");
  batch_lane_ = lane;
  lane_base_ = lane * sparse_a_.nnz();
  cursor_ = 0;
  batch_lane_fresh_[lane] = 0;
  // The lane assembles into its compact lane-major scratch region; other
  // lanes' regions are untouched (a lane frozen mid-batch stays factorable
  // with its last assembly).
  std::fill(lane_scratch_.begin() + static_cast<std::ptrdiff_t>(lane_base_),
            lane_scratch_.begin() +
                static_cast<std::ptrdiff_t>(lane_base_ + sparse_a_.nnz()),
            Scalar{});
  std::fill(lane_rhs_scratch_.begin(), lane_rhs_scratch_.end(), Scalar{});
}

template <typename Scalar>
void MnaSystem<Scalar>::end_lane() {
  require(cursor_ == slots_.size(),
          "MnaSystem: stamp sequence diverged from the captured pattern");
  // The rhs is tiny (a handful of source injections over n entries), so a
  // per-lane strided scatter is cheap; the matrix values wait for
  // factor_batch()'s blocked transpose.
  for (std::size_t i = 0; i < n_; ++i) {
    batch_rhs_[i * batch_lanes_ + batch_lane_] = lane_rhs_scratch_[i];
  }
}

template <typename Scalar>
bool MnaSystem<Scalar>::factor_batch() {
  require(batch_lanes_ > 0, "MnaSystem::factor_batch: no open batch");
  static obs::Counter& factors =
      obs::registry().counter("solver.batch_factors");
  static obs::Histogram& factor_us =
      obs::registry().histogram("solver.factor_batch_us");
  factors.add(1);
  obs::ScopedTimer timer(factor_us);
  obs::Span span("mna.factor_batch", static_cast<std::int64_t>(batch_lanes_));
  // A lane never stamped since begin_batch() must read as all-zero
  // (singular -> breakdown), not as the previous batch's stale values.
  for (std::size_t lane = 0; lane < batch_lanes_; ++lane) {
    if (!batch_lane_fresh_[lane]) continue;
    batch_lane_fresh_[lane] = 0;
    const std::size_t base = lane * sparse_a_.nnz();
    std::fill(lane_scratch_.begin() + static_cast<std::ptrdiff_t>(base),
              lane_scratch_.begin() +
                  static_cast<std::ptrdiff_t>(base + sparse_a_.nnz()),
              Scalar{});
    for (std::size_t i = 0; i < n_; ++i) {
      batch_rhs_[i * batch_lanes_ + lane] = Scalar{};
    }
  }
  if (fail::should_fail(fail::Site::kBatchRefactor)) return false;
  // The lane-major staging buffers go to the batched LU as-is: its kernels
  // gather each slot's lanes while scattering columns into the workspace,
  // so no slot-major transpose is ever materialized.
  return batch_lu_.refactor_lane_major(sparse_lu_, sparse_a_,
                                       lane_scratch_.data(), sparse_a_.nnz(),
                                       batch_lanes_);
}

template <typename Scalar>
void MnaSystem<Scalar>::solve_batch(std::vector<Scalar>& b) const {
  static obs::Counter& solves = obs::registry().counter("solver.batch_solves");
  solves.add(1);
  batch_lu_.solve(b);
}

template <typename Scalar>
bool MnaSystem<Scalar>::factor() {
  // solver.factors counts every factorization (real DC/transient and
  // complex AC); solver.complex_factors counts the AC share alone.
  static obs::Counter& factors = obs::registry().counter("solver.factors");
  static obs::Histogram& factor_us =
      obs::registry().histogram("solver.factor_us");
  factors.add(1);
  if constexpr (std::is_same_v<Scalar, std::complex<double>>) {
    static obs::Counter& complex_factors =
        obs::registry().counter("solver.complex_factors");
    complex_factors.add(1);
  }
  obs::ScopedTimer timer(factor_us);
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
