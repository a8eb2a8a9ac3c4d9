#include "src/spice/tran_solver.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"
#include "src/common/failpoint.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/spice/mosfet.hpp"

namespace moheco::spice {

TranSolver::TranSolver(const Netlist& netlist)
    : netlist_(netlist), layout_(netlist) {
  netlist.validate();
  sys_.reset(layout_.size());
  inductor_v_prev_.assign(netlist.inductors().size(), 0.0);
}

double TranSolver::voltage(std::size_t step, NodeId n) const {
  require(step < time_.size(), "TranSolver::voltage: step out of range");
  const std::size_t stride = layout_.num_nodes() + 1;
  return node_v_[step * stride + static_cast<std::size_t>(n)];
}

double TranSolver::differential(std::size_t step, NodeId np, NodeId nn) const {
  return voltage(step, np) - voltage(step, nn);
}

double TranSolver::voltage_at(double t, NodeId n) const {
  require(!time_.empty(), "TranSolver::voltage_at: no transient run yet");
  if (t <= time_.front()) return voltage(0, n);
  if (t >= time_.back()) return voltage(time_.size() - 1, n);
  const auto it = std::lower_bound(time_.begin(), time_.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - time_.begin());
  const std::size_t lo = hi - 1;
  const double w = (t - time_[lo]) / (time_[hi] - time_[lo]);
  return (1.0 - w) * voltage(lo, n) + w * voltage(hi, n);
}

void TranSolver::build_cap_states(const std::vector<double>& x) {
  caps_.clear();
  auto voltage_of = [&](NodeId n) -> double {
    return n == 0 ? 0.0 : x[static_cast<std::size_t>(n - 1)];
  };
  auto add_cap = [&](NodeId n1, NodeId n2, double c, int mosfet, int pair) {
    CapState s;
    s.n1 = layout_.node_index(n1);
    s.n2 = layout_.node_index(n2);
    s.c = c;
    s.v_prev = voltage_of(n1) - voltage_of(n2);
    s.i_prev = 0.0;  // DC steady state: no capacitor current
    s.mosfet = mosfet;
    s.terminal_pair = pair;
    caps_.push_back(s);
  };
  for (const auto& c : netlist_.capacitors()) {
    add_cap(c.n1, c.n2, c.capacitance, -1, 0);
  }
  // Five terminal-pair caps per MOSFET, in the fixed order gs, gd, gb, db,
  // sb; refresh_mosfet_caps relies on this layout.
  for (std::size_t i = 0; i < netlist_.mosfets().size(); ++i) {
    const auto& m = netlist_.mosfets()[i];
    const int mi = static_cast<int>(i);
    add_cap(m.g, m.s, 0.0, mi, 0);
    add_cap(m.g, m.d, 0.0, mi, 1);
    add_cap(m.g, m.b, 0.0, mi, 2);
    add_cap(m.d, m.b, 0.0, mi, 3);
    add_cap(m.s, m.b, 0.0, mi, 4);
  }
  refresh_mosfet_caps(x);
}

void TranSolver::refresh_mosfet_caps(const std::vector<double>& x) {
  if (netlist_.mosfets().empty()) return;
  auto voltage_of = [&](NodeId n) -> double {
    return n == 0 ? 0.0 : x[static_cast<std::size_t>(n - 1)];
  };
  const std::size_t base = netlist_.capacitors().size();
  for (std::size_t i = 0; i < netlist_.mosfets().size(); ++i) {
    const auto& m = netlist_.mosfets()[i];
    const double sign = m.is_pmos ? -1.0 : 1.0;
    const double vgs = sign * (voltage_of(m.g) - voltage_of(m.s));
    const double vds = sign * (voltage_of(m.d) - voltage_of(m.s));
    const double vbs = sign * (voltage_of(m.b) - voltage_of(m.s));
    const MosEval e = eval_mos(m.model, m.w_eff(), m.l_eff(), vgs, vds, vbs);
    const MosCaps caps_i = mos_caps(m.model, m.w_eff(), m.l_eff(), e.saturated);
    CapState* slot = &caps_[base + 5 * i];
    slot[0].c = caps_i.cgs;
    slot[1].c = caps_i.cgd;
    slot[2].c = caps_i.cgb;
    slot[3].c = caps_i.cdb;
    slot[4].c = caps_i.csb;
  }
}

void TranSolver::stamp_companions(Stamper<double>& stamper, double h,
                                  bool trapezoidal) const {
  // Capacitor i = C dv/dt:
  //   BE:   i_n = (C/h)  (v_n - v_prev)             -> geq = C/h
  //   trap: i_n = (2C/h) (v_n - v_prev) - i_prev    -> geq = 2C/h
  // The constant part becomes an equivalent current injection on the rhs.
  for (const CapState& c : caps_) {
    const double geq = (trapezoidal ? 2.0 : 1.0) * c.c / h;
    const double ieq = geq * c.v_prev + (trapezoidal ? c.i_prev : 0.0);
    stamper.conductance(c.n1, c.n2, geq);
    stamper.rhs_add(c.n1, ieq);
    stamper.rhs_add(c.n2, -ieq);
  }
  // Inductor v = L di/dt on the branch row:
  //   BE:   v_n - (L/h)  i_n = -(L/h)  i_prev
  //   trap: v_n - (2L/h) i_n = -v_prev - (2L/h) i_prev
  for (std::size_t i = 0; i < netlist_.inductors().size(); ++i) {
    const auto& l = netlist_.inductors()[i];
    const int br = static_cast<int>(layout_.inductor_branch(i));
    const int n1 = layout_.node_index(l.n1);
    const int n2 = layout_.node_index(l.n2);
    const double zeq = (trapezoidal ? 2.0 : 1.0) * l.inductance / h;
    stamper.add(n1, br, 1.0);
    stamper.add(n2, br, -1.0);
    stamper.add(br, n1, 1.0);
    stamper.add(br, n2, -1.0);
    stamper.add(br, br, -zeq);
    stamper.rhs_add(br, -zeq * inductor_i_prev_[i] -
                            (trapezoidal ? inductor_v_prev_[i] : 0.0));
  }
}

SolveStatus TranSolver::newton_step(const TranOptions& options, double t_new,
                                    double h, bool trapezoidal,
                                    std::vector<double>& x) {
  const std::size_t n = layout_.size();
  const std::size_t nodes = layout_.num_nodes();
  const DcOptions& dc = options.dc;
  std::vector<double> x_new(n);
  for (int iteration = 0; iteration < dc.max_iterations; ++iteration) {
    ++stats_.newton_iterations;
    sys_.begin_assembly();
    Stamper<double> stamper(sys_);
    stamp_linear_static(netlist_, layout_, stamper, dc.gmin,
                        /*source_scale=*/1.0, t_new);
    stamp_companions(stamper, h, trapezoidal);
    stamp_mosfets_large_signal(netlist_, layout_, stamper, x);
    sys_.end_assembly();
    x_new = sys_.rhs();
    if (!sys_.factor()) return SolveStatus::kSingular;
    sys_.solve(x_new);

    bool converged = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(x_new[i])) return SolveStatus::kSingular;
      double delta = x_new[i] - x[i];
      if (i < nodes) {
        if (std::fabs(delta) > dc.max_update) {
          delta = std::copysign(dc.max_update, delta);
          converged = false;
        }
        if (std::fabs(delta) > dc.v_tol + dc.rel_tol * std::fabs(x[i])) {
          converged = false;
        }
      } else {
        if (std::fabs(delta) > dc.i_tol + dc.rel_tol * std::fabs(x[i])) {
          converged = false;
        }
      }
      x[i] += delta;
    }
    if (converged) return SolveStatus::kOk;
  }
  return SolveStatus::kNoConvergence;
}

void TranSolver::accept_step(double h, bool trapezoidal,
                             const std::vector<double>& x) {
  auto voltage_of = [&](int idx) -> double {
    return idx < 0 ? 0.0 : x[static_cast<std::size_t>(idx)];
  };
  for (CapState& c : caps_) {
    const double v_new = voltage_of(c.n1) - voltage_of(c.n2);
    const double geq = (trapezoidal ? 2.0 : 1.0) * c.c / h;
    const double i_new =
        geq * (v_new - c.v_prev) - (trapezoidal ? c.i_prev : 0.0);
    c.v_prev = v_new;
    c.i_prev = i_new;
  }
  for (std::size_t i = 0; i < netlist_.inductors().size(); ++i) {
    const auto& l = netlist_.inductors()[i];
    const int n1 = layout_.node_index(l.n1);
    const int n2 = layout_.node_index(l.n2);
    inductor_v_prev_[i] = voltage_of(n1) - voltage_of(n2);
    inductor_i_prev_[i] = x[layout_.inductor_branch(i)];
  }
}

void TranSolver::append_record(double t, const std::vector<double>& x) {
  time_.push_back(t);
  const std::size_t base = node_v_.size();
  node_v_.resize(base + layout_.num_nodes() + 1);
  node_v_[base] = 0.0;  // ground
  for (std::size_t i = 0; i < layout_.num_nodes(); ++i) {
    node_v_[base + 1 + i] = x[i];
  }
}

std::vector<double> TranSolver::build_breakpoints(double t_stop) const {
  std::vector<double> bps;
  for (const auto& v : netlist_.vsources()) {
    v.wave.breakpoints(t_stop, &bps);
  }
  bps.push_back(t_stop);
  std::sort(bps.begin(), bps.end());
  bps.erase(std::unique(bps.begin(), bps.end(),
                        [&](double a, double b) {
                          return std::fabs(a - b) < 1e-12 * t_stop;
                        }),
            bps.end());
  return bps;
}

SolveStatus TranSolver::run(const TranOptions& options,
                            const std::vector<double>* initial_op) {
  require(options.t_stop > 0.0, "TranSolver::run: t_stop must be > 0");
  const double t_stop = options.t_stop;
  const double dt_init =
      options.dt_init > 0.0 ? options.dt_init : t_stop / 1000.0;
  const double dt_min = options.dt_min > 0.0 ? options.dt_min : t_stop * 1e-12;
  const double dt_max = options.dt_max > 0.0 ? options.dt_max : t_stop / 50.0;
  require(dt_min <= dt_init && dt_init <= t_stop,
          "TranSolver::run: inconsistent step bounds");

  const std::size_t n = layout_.size();
  stats_ = TranStats{};
  time_.clear();
  node_v_.clear();

  // Whatever exit path the integration takes, account the run: wall time
  // (timing-gated), accepted steps, and the Newton-iteration distribution.
  static obs::Histogram& run_us = obs::registry().histogram("tran.run_us");
  obs::ScopedTimer run_timer(run_us);
  obs::Span run_span("tran.run");
  struct StatsRecorder {
    const TranStats& stats;
    ~StatsRecorder() {
      static obs::Counter& runs = obs::registry().counter("tran.runs");
      static obs::Counter& steps = obs::registry().counter("tran.steps");
      static obs::Counter& newton =
          obs::registry().counter("tran.newton_iterations");
      static obs::Histogram& newton_h =
          obs::registry().histogram("tran.newton_iters");
      runs.add(1);
      steps.add(static_cast<std::uint64_t>(stats.steps));
      newton.add(static_cast<std::uint64_t>(stats.newton_iterations));
      newton_h.record(static_cast<std::uint64_t>(stats.newton_iterations));
    }
  } record{stats_};

  // --- t = 0 state: a converged DC operating point. ---
  std::vector<double> x;
  if (initial_op != nullptr && initial_op->size() == n) {
    x = *initial_op;
  } else {
    DcSolver dc(netlist_);
    const SolveStatus status = dc.solve(options.dc);
    if (status != SolveStatus::kOk) return status;
    x = dc.op().solution;
  }
  build_cap_states(x);
  inductor_v_prev_.assign(netlist_.inductors().size(), 0.0);
  inductor_i_prev_.assign(netlist_.inductors().size(), 0.0);
  for (std::size_t i = 0; i < netlist_.inductors().size(); ++i) {
    inductor_i_prev_[i] = x[layout_.inductor_branch(i)];
  }
  append_record(0.0, x);

  // --- breakpoints: source corners + the horizon itself. ---
  const std::vector<double> bps = build_breakpoints(t_stop);

  double t = 0.0;
  double h_next = dt_init;
  int be_left = options.trapezoidal ? options.be_startup_steps : 0;
  std::vector<double> xdot(n, 0.0);
  std::vector<double> x_pred(n), x_trial(n);
  std::size_t next_bp = 0;

  while (t < t_stop * (1.0 - 1e-12)) {
    // An LTE stall (the adaptive controller rejecting steps until the step
    // budget runs out) and the failpoint both surface as non-convergence.
    if (stats_.steps >= options.max_steps ||
        fail::should_fail(fail::Site::kTranStall)) {
      return SolveStatus::kNoConvergence;
    }
    // Fixed-step mode marches at exactly dt_init (modulo breakpoint cuts);
    // only the adaptive controller is bounded by [dt_min, dt_max].
    double h = options.adaptive ? std::clamp(h_next, dt_min, dt_max) : dt_init;
    while (next_bp < bps.size() && bps[next_bp] <= t + 1e-12 * t_stop) {
      ++next_bp;
    }
    const double t_target = next_bp < bps.size() ? bps[next_bp] : t_stop;
    bool hit_bp = false;
    if (t + h >= t_target - 1e-12 * t_stop) {
      h = t_target - t;
      hit_bp = true;
    }
    const bool use_trap = options.trapezoidal && be_left == 0;

    for (std::size_t i = 0; i < n; ++i) x_pred[i] = x[i] + h * xdot[i];
    x_trial = x_pred;
    const SolveStatus status =
        newton_step(options, t + h, h, use_trap, x_trial);
    if (status == SolveStatus::kSingular) return status;
    if (status != SolveStatus::kOk) {
      if (h <= dt_min * 1.000001) return status;
      h_next = std::max(h * 0.25, dt_min);
      if (!options.adaptive) return status;
      be_left = std::max(be_left, 1);
      ++stats_.rejected;
      continue;
    }

    double growth = 1.0;
    if (options.adaptive) {
      // LTE proxy: predictor/corrector difference over the node voltages.
      double ratio = 0.0;
      for (std::size_t i = 0; i < layout_.num_nodes(); ++i) {
        const double tol =
            options.lte_abs +
            options.lte_rel * std::max(std::fabs(x_trial[i]), std::fabs(x[i]));
        ratio = std::max(ratio, std::fabs(x_trial[i] - x_pred[i]) / tol);
      }
      if (ratio > 1.0 && h > dt_min * 1.000001) {
        ++stats_.rejected;
        h_next = std::max(
            h * std::clamp(0.9 / std::sqrt(ratio), 0.1, 0.5), dt_min);
        continue;
      }
      growth = std::clamp(0.9 / std::sqrt(std::max(ratio, 1e-4)), 0.2, 2.0);
    }

    accept_step(h, use_trap, x_trial);
    for (std::size_t i = 0; i < n; ++i) xdot[i] = (x_trial[i] - x[i]) / h;
    x = x_trial;
    t = hit_bp ? t_target : t + h;
    ++stats_.steps;
    append_record(t, x);
    refresh_mosfet_caps(x);
    if (be_left > 0) --be_left;
    if (hit_bp && t_target < t_stop * (1.0 - 1e-12)) {
      // A waveform corner: the solution's slope is discontinuous here, so
      // restart the multistep history with backward Euler and a fresh step.
      be_left = options.trapezoidal ? options.be_startup_steps : 0;
      std::fill(xdot.begin(), xdot.end(), 0.0);
      h_next = std::min(options.adaptive ? h * growth : dt_init, dt_init);
    } else {
      h_next = h * growth;
    }
  }
  return SolveStatus::kOk;
}

}  // namespace moheco::spice
