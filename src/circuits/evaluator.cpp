#include "src/circuits/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>

#include "src/circuits/step_metrics.hpp"
#include "src/circuits/testbench.hpp"
#include "src/common/error.hpp"
#include "src/common/failure_ladder.hpp"
#include "src/linalg/simd_caps.hpp"

namespace moheco::circuits {
namespace {

constexpr double kMaxFrequency = 1e14;  // Hz; beyond this "no crossing"

// --- warm-start blob (de)serialization helpers ---------------------------
// The blob is a flat vector of doubles; integers are stored as two exact
// 32-bit halves so pattern keys survive the double round-trip bit-for-bit.

constexpr double kWarmBlobVersion = 1.0;

void blob_push_u64(std::vector<double>& blob, std::uint64_t v) {
  blob.push_back(static_cast<double>(v & 0xFFFFFFFFu));
  blob.push_back(static_cast<double>(v >> 32));
}

/// Bounds-checked cursor over a blob; every read fails soft so a truncated
/// or foreign blob is rejected rather than trusted.
class BlobReader {
 public:
  explicit BlobReader(std::span<const double> blob) : blob_(blob) {}

  bool read(double* out) {
    if (pos_ >= blob_.size()) return false;
    *out = blob_[pos_++];
    return true;
  }

  bool read_u64(std::uint64_t* out) {
    double lo = 0.0, hi = 0.0;
    if (!read(&lo) || !read(&hi)) return false;
    if (lo < 0.0 || hi < 0.0 || lo > 4294967295.0 || hi > 4294967295.0) {
      return false;
    }
    *out = (static_cast<std::uint64_t>(hi) << 32) |
           static_cast<std::uint64_t>(lo);
    return true;
  }

  bool read_size(std::size_t* out, std::size_t max) {
    double v = 0.0;
    if (!read(&v) || v < 0.0 || v > static_cast<double>(max)) return false;
    *out = static_cast<std::size_t>(v);
    return true;
  }

  bool read_vector(std::vector<double>* out, std::size_t n) {
    if (pos_ + n > blob_.size()) return false;
    out->assign(blob_.begin() + static_cast<std::ptrdiff_t>(pos_),
                blob_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }

 private:
  std::span<const double> blob_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string EvalConfig::validate_batch(long long batch,
                                       std::string_view flag) {
  if (batch == kBatchAuto || (batch >= 1 && batch <= kBatchMax)) return {};
  return std::string(flag) + " must be a batch width between 1 and " +
         std::to_string(kBatchMax) + ", or 0 to autoselect";
}

int EvalConfig::resolve_batch(int batch) {
  if (batch != kBatchAuto) return batch;
  // K=8 keeps every kernel width fed -- it saturates the 8-wide AVX-512
  // lanes outright and still amortizes the symbolic traversal 8-fold
  // through the 4- and 2-wide kernels (the bench's K=8 rows beat K=2/4 at
  // every dispatch width) -- so autoselect only widens past it if the
  // runtime dispatcher ever reports wider lanes.
  return std::max(8, linalg::simd_caps().max_lane_width);
}

AmplifierEvaluator::AmplifierEvaluator(std::shared_ptr<const Topology> topology,
                                       EvalOptions options)
    : topology_(std::move(topology)),
      process_(topology_->tech(), topology_->num_transistors()),
      options_(options) {}

std::unique_ptr<AmplifierEvaluator::Session> AmplifierEvaluator::session(
    std::span<const double> x) const {
  return std::make_unique<Session>(*this, x);
}

Performance AmplifierEvaluator::evaluate(std::span<const double> x,
                                         std::span<const double> xi) const {
  Session s(*this, x);
  return xi.empty() ? s.nominal() : s.evaluate(xi);
}

AmplifierEvaluator::Session::Session(const AmplifierEvaluator& parent,
                                     std::span<const double> x)
    : Session(parent, x, /*blob=*/{}) {}

AmplifierEvaluator::Session::Session(const AmplifierEvaluator& parent,
                                     std::span<const double> x,
                                     std::span<const double> blob)
    : parent_(&parent),
      x_(x.begin(), x.end()),
      circuit_(parent.topology().build(x)) {
  require(static_cast<int>(circuit_.netlist.mosfets().size()) ==
              parent.topology().num_transistors(),
          "Session: topology transistor count mismatch");
  base_cards_.reserve(circuit_.netlist.mosfets().size());
  for (const auto& m : circuit_.netlist.mosfets()) {
    base_cards_.push_back(m.model);
  }
  dc_ = std::make_unique<spice::DcSolver>(circuit_.netlist);
  ac_ = std::make_unique<spice::AcSolver>(circuit_.netlist);
  if (parent.options().transient) {
    step_circuit_ = std::make_unique<BuiltCircuit>(
        parent.topology().build(x, Testbench::kStepBuffer));
    require(step_circuit_->netlist.mosfets().size() ==
                circuit_.netlist.mosfets().size(),
            "Session: step testbench transistor count mismatch");
    require(step_circuit_->step.source >= 0,
            "Session: step testbench has no stimulus");
    step_dc_ = std::make_unique<spice::DcSolver>(step_circuit_->netlist);
    tran_ = std::make_unique<spice::TranSolver>(step_circuit_->netlist);
  }
  if (blob.empty()) {
    nominal_perf_ = measure(/*is_nominal=*/true);
  } else if (!restore_warm_start(blob)) {
    // Corrupt/foreign/stale blob: reject it and re-measure cold.  This is a
    // degradation rung, not an error -- the blob store is advisory.
    fail::ladder_count(fail::Ladder::kWarmBlobRejected);
    nominal_perf_ = measure(/*is_nominal=*/true);
  }
}

std::vector<double> AmplifierEvaluator::Session::warm_start() const {
  if (!have_nominal_solution_) return {};  // nothing worth reviving
  std::vector<double> blob;
  blob.reserve(16 + x_.size() + nominal_solution_.size() +
               step_nominal_solution_.size());
  blob.push_back(kWarmBlobVersion);
  blob_push_u64(blob, dc_->pattern_key());
  blob_push_u64(blob, step_dc_ ? step_dc_->pattern_key() : 0);
  blob.push_back(static_cast<double>(x_.size()));
  blob.insert(blob.end(), x_.begin(), x_.end());
  blob.push_back(last_crossing_);
  blob.push_back(static_cast<double>(nominal_solution_.size()));
  blob.insert(blob.end(), nominal_solution_.begin(), nominal_solution_.end());
  const std::size_t n_step =
      have_step_nominal_ ? step_nominal_solution_.size() : 0;
  blob.push_back(static_cast<double>(n_step));
  blob.insert(blob.end(), step_nominal_solution_.begin(),
              step_nominal_solution_.begin() + static_cast<std::ptrdiff_t>(n_step));
  blob.push_back(nominal_perf_.valid ? 1.0 : 0.0);
  blob.push_back(nominal_perf_.a0_db);
  blob.push_back(nominal_perf_.gbw);
  blob.push_back(nominal_perf_.pm_deg);
  blob.push_back(nominal_perf_.swing);
  blob.push_back(nominal_perf_.power);
  blob.push_back(nominal_perf_.offset);
  blob.push_back(nominal_perf_.area);
  blob.push_back(nominal_perf_.sat_margin);
  blob.push_back(nominal_perf_.slew_rate);
  blob.push_back(nominal_perf_.settling_time);
  return blob;
}

bool AmplifierEvaluator::Session::restore_warm_start(
    std::span<const double> blob) {
  BlobReader reader(blob);
  double version = 0.0;
  if (!reader.read(&version) || version != kWarmBlobVersion) return false;
  std::uint64_t main_key = 0, step_key = 0;
  if (!reader.read_u64(&main_key) || main_key != dc_->pattern_key()) {
    return false;
  }
  if (!reader.read_u64(&step_key) ||
      step_key != (step_dc_ ? step_dc_->pattern_key() : 0)) {
    return false;
  }
  // Exact design-point match: the scheduler's blob store is keyed by a hash
  // of x, so a collision can hand over another candidate's blob.
  std::size_t nvars = 0;
  std::vector<double> blob_x;
  if (!reader.read_size(&nvars, 1u << 20) || nvars != x_.size() ||
      !reader.read_vector(&blob_x, nvars) || blob_x != x_) {
    return false;
  }
  double crossing = 0.0;
  if (!reader.read(&crossing)) return false;
  std::size_t n_main = 0;
  std::vector<double> main_solution;
  if (!reader.read_size(&n_main, 1u << 24) ||
      n_main != dc_->layout().size() ||
      !reader.read_vector(&main_solution, n_main)) {
    return false;
  }
  std::size_t n_step = 0;
  std::vector<double> step_solution;
  if (!reader.read_size(&n_step, 1u << 24) ||
      !reader.read_vector(&step_solution, n_step)) {
    return false;
  }
  if (n_step != 0 &&
      (!step_dc_ || n_step != step_dc_->layout().size())) {
    return false;
  }
  Performance perf;
  double valid = 0.0;
  if (!reader.read(&valid) || !reader.read(&perf.a0_db) ||
      !reader.read(&perf.gbw) || !reader.read(&perf.pm_deg) ||
      !reader.read(&perf.swing) || !reader.read(&perf.power) ||
      !reader.read(&perf.offset) || !reader.read(&perf.area) ||
      !reader.read(&perf.sat_margin) || !reader.read(&perf.slew_rate) ||
      !reader.read(&perf.settling_time)) {
    return false;
  }
  perf.valid = valid != 0.0;

  nominal_solution_ = std::move(main_solution);
  have_nominal_solution_ = true;
  last_crossing_ = crossing;
  if (n_step != 0) {
    step_nominal_solution_ = std::move(step_solution);
    have_step_nominal_ = true;
  }
  nominal_perf_ = perf;
  return true;
}

void AmplifierEvaluator::Session::apply_process(std::span<const double> xi) {
  const ProcessModel& process = parent_->process_;
  for (std::size_t i = 0; i < base_cards_.size(); ++i) {
    spice::Mosfet& m = circuit_.netlist.mosfet(static_cast<int>(i));
    if (xi.empty()) {
      m.model = base_cards_[i];
    } else {
      m.model = apply_deltas(
          base_cards_[i],
          process.device_deltas(xi, static_cast<int>(i), m.is_pmos, m.w, m.l));
    }
    if (step_circuit_) {
      // Same canonical transistor order in both testbenches: the perturbed
      // card applies verbatim, keeping both MNA layouts valid.
      step_circuit_->netlist.mosfet(static_cast<int>(i)).model = m.model;
    }
  }
}

Performance AmplifierEvaluator::Session::evaluate(std::span<const double> xi) {
  if (xi.empty()) return nominal_perf_;
  apply_process(xi);
  return measure(/*is_nominal=*/false);
}

void AmplifierEvaluator::Session::evaluate_batch(std::span<const double> xis,
                                                 std::size_t lanes,
                                                 std::span<Performance> out) {
  require(lanes > 0 && out.size() >= lanes,
          "Session::evaluate_batch: need one output slot per lane");
  const std::size_t dim = xis.size() / lanes;
  require(dim * lanes == xis.size(),
          "Session::evaluate_batch: samples not a whole number of lanes");
  auto lane_xi = [&](std::size_t l) { return xis.subspan(l * dim, dim); };

  // Scalar loop when batching cannot engage: single lane, or a
  // warm-blob-revived session whose solvers have not yet analyzed their
  // patterns (the first scalar sample does that; later batches engage).
  if (lanes == 1 || dim == 0 || !have_nominal_solution_ ||
      !dc_->batch_ready() || !ac_->batch_ready()) {
    for (std::size_t l = 0; l < lanes; ++l) out[l] = evaluate(lane_xi(l));
    return;
  }

  // Per-lane model cards, derived once up front; `activate` installs lane
  // l's cards on both netlists (the step twin shares the canonical
  // transistor order, as in apply_process).
  const std::size_t num_mos = base_cards_.size();
  std::vector<spice::MosModel> cards(lanes * num_mos);
  for (std::size_t l = 0; l < lanes; ++l) {
    apply_process(lane_xi(l));
    for (std::size_t i = 0; i < num_mos; ++i) {
      cards[l * num_mos + i] = circuit_.netlist.mosfets()[i].model;
    }
  }
  auto activate = [&](std::size_t l) {
    for (std::size_t i = 0; i < num_mos; ++i) {
      const spice::MosModel& card = cards[l * num_mos + i];
      circuit_.netlist.mosfet(static_cast<int>(i)).model = card;
      if (step_circuit_) {
        step_circuit_->netlist.mosfet(static_cast<int>(i)).model = card;
      }
    }
  };

  // --- Phase 1: lockstep batched DC.  Any lane off the warm Newton path
  // demotes the whole batch to the scalar loop, which reproduces the
  // scalar evaluation-order semantics exactly.
  spice::DcOptions dc_options;
  std::vector<spice::OperatingPoint> ops;
  if (!dc_->solve_batch(dc_options, lanes, activate, nominal_solution_,
                        &ops)) {
    fail::ladder_count(fail::Ladder::kLaneDemotion);
    for (std::size_t l = 0; l < lanes; ++l) {
      activate(l);
      out[l] = measure(/*is_nominal=*/false);
    }
    return;
  }

  // --- Phase 2: per-lane DC-derived metrics (same math as the scalar
  // path in measure_small_signal).
  for (std::size_t l = 0; l < lanes; ++l) {
    Performance perf;
    perf.area = circuit_.gate_area;
    const spice::OperatingPoint& op = ops[l];
    perf.power =
        circuit_.vdd * std::fabs(op.vsource_current[circuit_.vdd_source]);
    perf.offset = std::fabs(op.node_voltage[circuit_.outp] -
                            op.node_voltage[circuit_.outn]);
    double sat_margin = 1e9;
    for (const auto& mos : op.mosfets) {
      sat_margin = std::min(sat_margin, mos.sat_margin);
    }
    perf.sat_margin = sat_margin;
    double top = 0.0, bottom = 0.0;
    for (int i : circuit_.swing_top) top += op.mosfets[i].eval.vdsat;
    for (int i : circuit_.swing_bottom) bottom += op.mosfets[i].eval.vdsat;
    perf.swing = 2.0 * (circuit_.vdd - top - bottom);
    out[l] = perf;
  }

  // --- Phase 3: lockstep batched AC gain-bandwidth search.  Every lane
  // walks the exact scalar probe sequence of measure_ac as a per-lane
  // state machine; each round restamps the still-searching lanes at their
  // next probe frequency and refactors all lanes at once.  Finished lanes
  // freeze (their last system stays in the batch and keeps refactoring
  // deterministically).  A refactorization breakdown kills the batch and
  // the AC leg is redone through scalar measure_ac in lane order --
  // bit-identical to a scalar run, since batched rounds never mutate the
  // scalar solver's state.
  enum class AcState : unsigned char {
    kH0, kSeed, kExpand, kShrink, kBisect, kPm, kDone
  };
  struct LaneSearch {
    AcState state = AcState::kH0;
    double freq = 0.0;  ///< pending probe frequency
    std::complex<double> h0;
    double fa = 0.0, fb = 0.0, fcur = 0.0, fm = 0.0;
    int iter = 0;
  };
  std::vector<LaneSearch> search(lanes);
  ac_->begin_batch(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    ac_->prepare_lane(l, ops[l]);
    search[l].freq = kAcFrequencyLow;
  }

  auto next_bisect_or_finish = [&](std::size_t l) {
    LaneSearch& s = search[l];
    if (s.iter < 48 && s.fb / s.fa > 1.002) {
      s.fm = std::sqrt(s.fa * s.fb);
      s.freq = s.fm;
      s.state = AcState::kBisect;
    } else {
      out[l].gbw = std::sqrt(s.fa * s.fb);
      s.freq = out[l].gbw;
      s.state = AcState::kPm;
    }
  };
  auto advance = [&](std::size_t l, std::complex<double> h) {
    LaneSearch& s = search[l];
    Performance& perf = out[l];
    switch (s.state) {
      case AcState::kH0: {
        s.h0 = h;
        const double mag0 = std::abs(h);
        if (!(mag0 > 0.0) || !std::isfinite(mag0)) {
          s.state = AcState::kDone;
          return;
        }
        perf.a0_db = 20.0 * std::log10(mag0);
        if (mag0 <= 1.0) {
          perf.gbw = 0.0;
          perf.pm_deg = -180.0;
          perf.valid = true;
          s.state = AcState::kDone;
          return;
        }
        s.fa = kAcFrequencyLow;
        s.freq = last_crossing_ > 0.0 ? last_crossing_ : 1e6;
        s.state = AcState::kSeed;
        return;
      }
      case AcState::kSeed: {
        const double seed = s.freq;
        if (std::abs(h) > 1.0) {
          s.fa = seed;
          s.fb = seed * 4.0;
          if (s.fb > kMaxFrequency) {
            perf.gbw = kMaxFrequency;
            perf.pm_deg = 0.0;
            perf.valid = true;
            s.state = AcState::kDone;
            return;
          }
          s.freq = s.fb;
          s.state = AcState::kExpand;
        } else {
          s.fb = seed;
          s.fcur = seed;
          if (s.fcur > 4.0 * kAcFrequencyLow) {
            s.fcur *= 0.25;
            s.freq = s.fcur;
            s.state = AcState::kShrink;
          } else {
            next_bisect_or_finish(l);
          }
        }
        return;
      }
      case AcState::kExpand: {
        if (std::abs(h) <= 1.0) {
          next_bisect_or_finish(l);
          return;
        }
        s.fa = s.fb;
        s.fb *= 4.0;
        if (s.fb > kMaxFrequency) {
          perf.gbw = kMaxFrequency;
          perf.pm_deg = 0.0;
          perf.valid = true;
          s.state = AcState::kDone;
          return;
        }
        s.freq = s.fb;
        return;
      }
      case AcState::kShrink: {
        if (std::abs(h) > 1.0) {
          s.fa = s.fcur;
          next_bisect_or_finish(l);
          return;
        }
        s.fb = s.fcur;
        if (s.fcur > 4.0 * kAcFrequencyLow) {
          s.fcur *= 0.25;
          s.freq = s.fcur;
        } else {
          next_bisect_or_finish(l);
        }
        return;
      }
      case AcState::kBisect: {
        (std::abs(h) > 1.0 ? s.fa : s.fb) = s.fm;
        ++s.iter;
        next_bisect_or_finish(l);
        return;
      }
      case AcState::kPm: {
        const double phase_rel = std::arg(h / s.h0);
        perf.pm_deg = 180.0 + phase_rel * 180.0 / M_PI;
        perf.valid = true;
        s.state = AcState::kDone;
        return;
      }
      case AcState::kDone:
        return;
    }
  };

  std::vector<double> freqs(lanes, kAcFrequencyLow);
  std::vector<char> active(lanes, 1);
  bool batch_ok = true;
  while (true) {
    std::size_t pending = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      const bool searching = search[l].state != AcState::kDone;
      active[l] = searching ? 1 : 0;
      if (searching) {
        freqs[l] = search[l].freq;
        ++pending;
      }
    }
    if (pending == 0) break;
    if (!ac_->solve_batch(freqs, active)) {
      batch_ok = false;
      break;
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      if (active[l] != 0) {
        advance(l, ac_->differential(l, circuit_.outp, circuit_.outn));
      }
    }
  }
  ac_->end_batch();
  if (!batch_ok) {
    fail::ladder_count(fail::Ladder::kLaneDemotion);
    const Performance defaults;
    for (std::size_t l = 0; l < lanes; ++l) {
      out[l].a0_db = defaults.a0_db;
      out[l].gbw = defaults.gbw;
      out[l].pm_deg = defaults.pm_deg;
      out[l].valid = defaults.valid;
      measure_ac(/*is_nominal=*/false, ops[l], &out[l]);
    }
  }

  // --- Phase 4: lockstep batched transients (scalar path: the transient
  // only runs on samples whose small-signal leg converged).
  if (tran_) measure_transient_batch(lanes, activate, out);
}

void AmplifierEvaluator::Session::measure_transient_batch(
    std::size_t lanes, const std::function<void(std::size_t)>& activate,
    std::span<Performance> out) {
  // The transient leg runs on the subset of lanes whose small-signal leg
  // converged; the batch is compacted to that subset (`idx[k]` maps batch
  // lane k back to the evaluation lane).
  std::vector<std::size_t> idx;
  for (std::size_t l = 0; l < lanes; ++l) {
    if (out[l].valid) idx.push_back(l);
  }
  if (idx.empty()) return;
  auto scalar_replay = [&]() {
    for (std::size_t l : idx) {
      activate(l);
      measure_transient(/*is_nominal=*/false, &out[l]);
    }
  };
  if (idx.size() == 1) {
    scalar_replay();
    return;
  }
  auto activate_sub = [&](std::size_t k) { activate(idx[k]); };

  // Lockstep batched step-DC of the buffer, every lane warm-started from
  // the shared nominal buffer solution exactly like scalar
  // measure_transient (no nominal recorded yet == a flat zero start).
  spice::DcOptions dc_options = parent_->options_.tran.dc;
  const std::vector<double> warm =
      have_step_nominal_
          ? step_nominal_solution_
          : std::vector<double>(step_dc_->layout().size(), 0.0);
  std::vector<spice::OperatingPoint> ops;
  if (!step_dc_->solve_batch(dc_options, idx.size(), activate_sub, warm,
                             &ops)) {
    fail::ladder_count(fail::Ladder::kLaneDemotion);
    scalar_replay();  // includes any lane whose buffer DC fails scalar too
    return;
  }

  spice::TranOptions tran_options = parent_->options_.tran;
  tran_options.t_stop = step_circuit_->step.t_stop;
  std::vector<std::vector<double>> initial_ops(idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    initial_ops[k] = ops[k].solution;
  }
  std::vector<spice::TranLaneResult> results;
  if (!tran_->run_batch(tran_options, idx.size(), activate_sub, initial_ops,
                        &results)) {
    fail::ladder_count(fail::Ladder::kLaneDemotion);
    scalar_replay();
    return;
  }

  // Per-lane waveform extraction + step metrics, identical arithmetic to
  // scalar measure_transient over bit-identical waveforms.
  const BuiltCircuit& bc = *step_circuit_;
  const std::size_t stride = tran_->layout().num_nodes() + 1;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const spice::TranLaneResult& res = results[k];
    if (res.status != spice::SolveStatus::kOk) continue;  // keep defaults
    const std::size_t points = res.time.size();
    std::vector<double> vout(points);
    for (std::size_t p = 0; p < points; ++p) {
      vout[p] = res.node_v[p * stride + static_cast<std::size_t>(bc.outp)] -
                res.node_v[p * stride + static_cast<std::size_t>(bc.outn)];
    }
    const StepMetrics metrics = measure_step_response(
        res.time, vout, bc.step.t_delay, bc.step.settle_frac);
    Performance& perf = out[idx[k]];
    perf.slew_rate = metrics.slew_rate;
    if (metrics.valid || metrics.settling_time > 0.0) {
      perf.settling_time = metrics.settling_time;
    }
  }
}

Performance AmplifierEvaluator::Session::measure(bool is_nominal) {
  Performance perf = measure_small_signal(is_nominal);
  // The step-buffer transient only runs on samples whose small-signal
  // evaluation converged; a sample that cannot even bias is already a fail.
  if (perf.valid && tran_) measure_transient(is_nominal, &perf);
  return perf;
}

Performance AmplifierEvaluator::Session::measure_small_signal(
    bool is_nominal) {
  Performance perf;
  perf.area = circuit_.gate_area;

  // --- DC operating point (warm-started from the nominal solution). ---
  spice::DcOptions dc_options;
  std::vector<double> x;
  if (have_nominal_solution_) x = nominal_solution_;
  const spice::SolveStatus dc_status = dc_->solve(dc_options, &x);
  if (dc_status != spice::SolveStatus::kOk) {
    // End of the solver ladder: the sample stays invalid and fails specs.
    fail::ladder_count(fail::Ladder::kSampleInfeasible);
    return perf;
  }
  if (is_nominal) {
    nominal_solution_ = x;
    have_nominal_solution_ = true;
  }
  const spice::OperatingPoint& op = dc_->op();

  perf.power =
      circuit_.vdd * std::fabs(op.vsource_current[circuit_.vdd_source]);
  perf.offset = std::fabs(op.node_voltage[circuit_.outp] -
                          op.node_voltage[circuit_.outn]);

  double sat_margin = 1e9;
  for (const auto& mos : op.mosfets) {
    sat_margin = std::min(sat_margin, mos.sat_margin);
  }
  perf.sat_margin = sat_margin;

  double top = 0.0, bottom = 0.0;
  for (int i : circuit_.swing_top) top += op.mosfets[i].eval.vdsat;
  for (int i : circuit_.swing_bottom) bottom += op.mosfets[i].eval.vdsat;
  perf.swing = 2.0 * (circuit_.vdd - top - bottom);

  measure_ac(is_nominal, op, &perf);
  return perf;
}

void AmplifierEvaluator::Session::measure_ac(bool is_nominal,
                                             const spice::OperatingPoint& op,
                                             Performance* out) {
  Performance& perf = *out;
  // --- AC: A0, GBW (log bisection on |H| = 1), phase margin. ---
  ac_->prepare(op);
  auto transfer = [&](double freq,
                      std::complex<double>* h) -> spice::SolveStatus {
    const spice::SolveStatus status = ac_->solve(freq);
    if (status == spice::SolveStatus::kOk) {
      *h = ac_->differential(circuit_.outp, circuit_.outn);
    }
    return status;
  };

  std::complex<double> h0;
  if (transfer(kAcFrequencyLow, &h0) != spice::SolveStatus::kOk) return;
  const double mag0 = std::abs(h0);
  if (!(mag0 > 0.0) || !std::isfinite(mag0)) return;
  perf.a0_db = 20.0 * std::log10(mag0);

  if (mag0 <= 1.0) {
    // Gain below 0 dB: no unity crossing; report a broken-but-valid sample.
    perf.gbw = 0.0;
    perf.pm_deg = -180.0;
    perf.valid = true;
    return;
  }

  auto magnitude_at = [&](double freq, bool* ok) {
    std::complex<double> h;
    *ok = transfer(freq, &h) == spice::SolveStatus::kOk;
    return std::abs(h);
  };

  bool ok = true;
  double fa = kAcFrequencyLow;            // |H| > 1 here
  double fb = 0.0;                        // will satisfy |H| < 1
  double seed = last_crossing_ > 0.0 ? last_crossing_ : 1e6;
  const double mag_seed = magnitude_at(seed, &ok);
  if (!ok) return;
  if (mag_seed > 1.0) {
    fa = seed;
    fb = seed;
    do {
      fb *= 4.0;
      if (fb > kMaxFrequency) {
        perf.gbw = kMaxFrequency;
        perf.pm_deg = 0.0;
        perf.valid = true;
        return;
      }
      const double m = magnitude_at(fb, &ok);
      if (!ok) return;
      if (m <= 1.0) break;
      fa = fb;
    } while (true);
  } else {
    fb = seed;
    double fcur = seed;
    while (fcur > 4.0 * kAcFrequencyLow) {
      fcur *= 0.25;
      const double m = magnitude_at(fcur, &ok);
      if (!ok) return;
      if (m > 1.0) {
        fa = fcur;
        break;
      }
      fb = fcur;
    }
  }
  for (int iter = 0; iter < 48 && fb / fa > 1.002; ++iter) {
    const double fm = std::sqrt(fa * fb);
    const double m = magnitude_at(fm, &ok);
    if (!ok) return;
    (m > 1.0 ? fa : fb) = fm;
  }
  perf.gbw = std::sqrt(fa * fb);
  // Only the nominal measurement seeds the crossing search: sample results
  // must be pure functions of (x, xi), independent of evaluation order.
  if (is_nominal) last_crossing_ = perf.gbw;

  std::complex<double> hc;
  if (transfer(perf.gbw, &hc) != spice::SolveStatus::kOk) return;
  // Normalize by the DC response so a constant output inversion does not
  // shift the phase reference.
  const double phase_rel = std::arg(hc / h0);
  perf.pm_deg = 180.0 + phase_rel * 180.0 / M_PI;
  perf.valid = true;
}

void AmplifierEvaluator::Session::measure_transient(bool is_nominal,
                                                    Performance* perf) {
  const BuiltCircuit& bc = *step_circuit_;

  // Operating point of the buffer (input held at the pulse's t=0 level),
  // warm-started from the nominal buffer solution across process samples.
  spice::DcOptions dc_options = parent_->options_.tran.dc;
  std::vector<double> x;
  if (have_step_nominal_) x = step_nominal_solution_;
  if (step_dc_->solve(dc_options, &x) != spice::SolveStatus::kOk) {
    fail::ladder_count(fail::Ladder::kSampleInfeasible);
    return;  // slew/settling keep their spec-failing defaults
  }
  if (is_nominal) {
    step_nominal_solution_ = x;
    have_step_nominal_ = true;
  }

  spice::TranOptions tran_options = parent_->options_.tran;
  tran_options.t_stop = bc.step.t_stop;
  if (tran_->run(tran_options, &x) != spice::SolveStatus::kOk) {
    fail::ladder_count(fail::Ladder::kSampleInfeasible);
    return;
  }

  const std::size_t points = tran_->num_points();
  std::vector<double> vout(points);
  for (std::size_t k = 0; k < points; ++k) {
    vout[k] = tran_->differential(k, bc.outp, bc.outn);
  }
  const StepMetrics metrics = measure_step_response(
      tran_->time(), vout, bc.step.t_delay, bc.step.settle_frac);
  // Copy what was measured even when the response did not settle: the
  // settling spec still fails (settling_time = full horizon), but
  // per-metric consumers (PSWCD margins, bench readouts) see the real
  // slew rate instead of the spec-failing default.
  perf->slew_rate = metrics.slew_rate;
  if (metrics.valid || metrics.settling_time > 0.0) {
    perf->settling_time = metrics.settling_time;
  }
}

}  // namespace moheco::circuits
