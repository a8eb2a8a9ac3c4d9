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

void TranSolver::build_cap_states(const std::vector<double>& x,
                                  std::vector<CapState>* caps) const {
  caps->clear();
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
    caps->push_back(s);
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
  refresh_mosfet_caps(x, caps);
}

void TranSolver::refresh_mosfet_caps(const std::vector<double>& x,
                                     std::vector<CapState>* caps) const {
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
    CapState* slot = &(*caps)[base + 5 * i];
    slot[0].c = caps_i.cgs;
    slot[1].c = caps_i.cgd;
    slot[2].c = caps_i.cgb;
    slot[3].c = caps_i.cdb;
    slot[4].c = caps_i.csb;
  }
}


void TranSolver::stamp_companions(Stamper<double>& stamper, double h,
                                  bool trapezoidal,
                                  const std::vector<CapState>& caps,
                                  const std::vector<double>& ind_v_prev,
                                  const std::vector<double>& ind_i_prev) const {
  // Capacitor i = C dv/dt:
  //   BE:   i_n = (C/h)  (v_n - v_prev)             -> geq = C/h
  //   trap: i_n = (2C/h) (v_n - v_prev) - i_prev    -> geq = 2C/h
  // The constant part becomes an equivalent current injection on the rhs.
  for (const CapState& c : caps) {
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
    stamper.rhs_add(br, -zeq * ind_i_prev[i] -
                            (trapezoidal ? ind_v_prev[i] : 0.0));
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
    stamp_companions(stamper, h, trapezoidal, caps_, inductor_v_prev_,
                     inductor_i_prev_);
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
                             const std::vector<double>& x,
                             std::vector<CapState>* caps,
                             std::vector<double>* ind_v_prev,
                             std::vector<double>* ind_i_prev) const {
  auto voltage_of = [&](int idx) -> double {
    return idx < 0 ? 0.0 : x[static_cast<std::size_t>(idx)];
  };
  for (CapState& c : *caps) {
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
    (*ind_v_prev)[i] = voltage_of(n1) - voltage_of(n2);
    (*ind_i_prev)[i] = x[layout_.inductor_branch(i)];
  }
}

void TranSolver::append_record(double t, const std::vector<double>& x,
                               std::vector<double>* time,
                               std::vector<double>* node_v) const {
  time->push_back(t);
  const std::size_t base = node_v->size();
  node_v->resize(base + layout_.num_nodes() + 1);
  (*node_v)[base] = 0.0;  // ground
  for (std::size_t i = 0; i < layout_.num_nodes(); ++i) {
    (*node_v)[base + 1 + i] = x[i];
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
  build_cap_states(x, &caps_);
  inductor_v_prev_.assign(netlist_.inductors().size(), 0.0);
  inductor_i_prev_.assign(netlist_.inductors().size(), 0.0);
  for (std::size_t i = 0; i < netlist_.inductors().size(); ++i) {
    inductor_i_prev_[i] = x[layout_.inductor_branch(i)];
  }
  append_record(0.0, x, &time_, &node_v_);

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

    accept_step(h, use_trap, x_trial, &caps_, &inductor_v_prev_,
                &inductor_i_prev_);
    for (std::size_t i = 0; i < n; ++i) xdot[i] = (x_trial[i] - x[i]) / h;
    x = x_trial;
    t = hit_bp ? t_target : t + h;
    ++stats_.steps;
    append_record(t, x, &time_, &node_v_);
    refresh_mosfet_caps(x, &caps_);
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

bool TranSolver::run_batch(
    const TranOptions& options, std::size_t lanes,
    const std::function<void(std::size_t)>& activate_lane,
    const std::vector<std::vector<double>>& initial_ops,
    std::vector<TranLaneResult>* results) {
  const std::size_t n = layout_.size();
  if (lanes == 0 || results == nullptr || initial_ops.size() != lanes) {
    return false;
  }
  for (const auto& op : initial_ops) {
    if (op.size() != n) return false;
  }
  // Same derived step bounds as scalar run(); invalid options fall back to
  // the scalar path so its require() reports them.
  if (!(options.t_stop > 0.0)) return false;
  const double t_stop = options.t_stop;
  const double dt_init =
      options.dt_init > 0.0 ? options.dt_init : t_stop / 1000.0;
  const double dt_min = options.dt_min > 0.0 ? options.dt_min : t_stop * 1e-12;
  const double dt_max = options.dt_max > 0.0 ? options.dt_max : t_stop / 50.0;
  if (!(dt_min <= dt_init && dt_init <= t_stop)) return false;
  if (options.max_steps <= 0) return false;

  static obs::Counter& batch_runs = obs::registry().counter("tran.batch_runs");
  static obs::Histogram& batch_us =
      obs::registry().histogram("tran.run_batch_us");
  batch_runs.add(1);
  obs::ScopedTimer batch_timer(batch_us);
  obs::Span batch_span("tran.run_batch", static_cast<std::int64_t>(lanes));

  const std::vector<double> bps = build_breakpoints(t_stop);
  const std::size_t nodes = layout_.num_nodes();
  const DcOptions& dc = options.dc;

  // Per-lane integration state: exactly the locals of scalar run(), plus
  // the lane's own companion/waveform state.  `in_newton` marks a lane with
  // a step attempt in flight (its x_trial iterates each lockstep round).
  struct Lane {
    std::vector<CapState> caps;
    std::vector<double> ind_v_prev, ind_i_prev;
    std::vector<double> x, xdot, x_pred, x_trial;
    double t = 0.0;
    double h = 0.0;
    double h_next = 0.0;
    double t_target = 0.0;
    bool hit_bp = false;
    bool use_trap = false;
    bool in_newton = false;
    int newton_iter = 0;
    int be_left = 0;
    std::size_t next_bp = 0;
    bool done = false;
    TranLaneResult res;
  };
  std::vector<Lane> lane(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    Lane& s = lane[l];
    activate_lane(l);  // cap values come from lane l's model cards
    s.x = initial_ops[l];
    build_cap_states(s.x, &s.caps);
    s.ind_v_prev.assign(netlist_.inductors().size(), 0.0);
    s.ind_i_prev.assign(netlist_.inductors().size(), 0.0);
    for (std::size_t i = 0; i < netlist_.inductors().size(); ++i) {
      s.ind_i_prev[i] = s.x[layout_.inductor_branch(i)];
    }
    s.xdot.assign(n, 0.0);
    s.x_pred.resize(n);
    s.x_trial.resize(n);
    s.h_next = dt_init;
    s.be_left = options.trapezoidal ? options.be_startup_steps : 0;
    append_record(0.0, s.x, &s.res.time, &s.res.node_v);
  }

  // The batch path needs the captured stamp pattern and a symbolic
  // analysis.  A solver that never ran a scalar transient bootstraps both
  // from lane 0's first Newton system (the factors are discarded; only the
  // pattern capture and the analysis survive).
  if (!sys_.batch_ready()) {
    activate_lane(0);
    sys_.begin_assembly();
    Stamper<double> stamper(sys_);
    stamp_linear_static(netlist_, layout_, stamper, dc.gmin,
                        /*source_scale=*/1.0, dt_init);
    stamp_companions(stamper, dt_init, /*trapezoidal=*/false, lane[0].caps,
                     lane[0].ind_v_prev, lane[0].ind_i_prev);
    stamp_mosfets_large_signal(netlist_, layout_, stamper, lane[0].x);
    sys_.end_assembly();
    if (!sys_.factor()) return false;
    if (!sys_.batch_ready()) return false;
  }

  std::size_t num_active = lanes;
  auto finish = [&](Lane& s, SolveStatus status) {
    s.res.status = status;
    s.done = true;
    --num_active;
  };

  // A lane whose Newton converged runs the scalar LTE accept/reject logic
  // verbatim; afterwards the lane either finished, or starts its next step
  // attempt on the following lockstep round.
  auto post_newton = [&](std::size_t l) {
    Lane& s = lane[l];
    double growth = 1.0;
    if (options.adaptive) {
      double ratio = 0.0;
      for (std::size_t i = 0; i < nodes; ++i) {
        const double tol =
            options.lte_abs + options.lte_rel * std::max(std::fabs(s.x_trial[i]),
                                                         std::fabs(s.x[i]));
        ratio = std::max(ratio, std::fabs(s.x_trial[i] - s.x_pred[i]) / tol);
      }
      if (ratio > 1.0 && s.h > dt_min * 1.000001) {
        ++s.res.stats.rejected;
        s.h_next = std::max(
            s.h * std::clamp(0.9 / std::sqrt(ratio), 0.1, 0.5), dt_min);
        return;
      }
      growth = std::clamp(0.9 / std::sqrt(std::max(ratio, 1e-4)), 0.2, 2.0);
    }

    accept_step(s.h, s.use_trap, s.x_trial, &s.caps, &s.ind_v_prev,
                &s.ind_i_prev);
    for (std::size_t i = 0; i < n; ++i) {
      s.xdot[i] = (s.x_trial[i] - s.x[i]) / s.h;
    }
    s.x = s.x_trial;
    s.t = s.hit_bp ? s.t_target : s.t + s.h;
    ++s.res.stats.steps;
    append_record(s.t, s.x, &s.res.time, &s.res.node_v);
    activate_lane(l);  // Meyer caps refresh against lane l's model cards
    refresh_mosfet_caps(s.x, &s.caps);
    if (s.be_left > 0) --s.be_left;
    if (s.hit_bp && s.t_target < t_stop * (1.0 - 1e-12)) {
      s.be_left = options.trapezoidal ? options.be_startup_steps : 0;
      std::fill(s.xdot.begin(), s.xdot.end(), 0.0);
      s.h_next = std::min(options.adaptive ? s.h * growth : dt_init, dt_init);
    } else {
      s.h_next = s.h * growth;
    }
    if (!(s.t < t_stop * (1.0 - 1e-12))) finish(s, SolveStatus::kOk);
  };

  sys_.begin_batch(lanes);
  bool demoted = false;
  std::vector<double> x_new;  // reused across lockstep rounds
  while (num_active > 0) {
    // 1) Lanes between attempts open their next one: scalar run()'s loop
    //    head (step-size choice, breakpoint landing, predictor).
    for (std::size_t l = 0; l < lanes; ++l) {
      Lane& s = lane[l];
      if (s.done || s.in_newton) continue;
      if (s.res.stats.steps >= options.max_steps) {
        finish(s, SolveStatus::kNoConvergence);
        continue;
      }
      double h =
          options.adaptive ? std::clamp(s.h_next, dt_min, dt_max) : dt_init;
      while (s.next_bp < bps.size() &&
             bps[s.next_bp] <= s.t + 1e-12 * t_stop) {
        ++s.next_bp;
      }
      s.t_target = s.next_bp < bps.size() ? bps[s.next_bp] : t_stop;
      s.hit_bp = false;
      if (s.t + h >= s.t_target - 1e-12 * t_stop) {
        h = s.t_target - s.t;
        s.hit_bp = true;
      }
      s.h = h;
      s.use_trap = options.trapezoidal && s.be_left == 0;
      for (std::size_t i = 0; i < n; ++i) {
        s.x_pred[i] = s.x[i] + h * s.xdot[i];
      }
      s.x_trial = s.x_pred;
      s.newton_iter = 0;
      s.in_newton = true;
    }
    if (num_active == 0) break;

    // 2) One lockstep Newton iteration: every iterating lane stamps its
    //    system, the batch factors and solves all of them at once.  Frozen
    //    lanes keep their last (factorable) assembly.
    for (std::size_t l = 0; l < lanes; ++l) {
      Lane& s = lane[l];
      if (s.done) continue;
      ++s.res.stats.newton_iterations;
      activate_lane(l);
      sys_.begin_lane(l);
      Stamper<double> stamper(sys_);
      stamp_linear_static(netlist_, layout_, stamper, dc.gmin,
                          /*source_scale=*/1.0, s.t + s.h);
      stamp_companions(stamper, s.h, s.use_trap, s.caps, s.ind_v_prev,
                       s.ind_i_prev);
      stamp_mosfets_large_signal(netlist_, layout_, stamper, s.x_trial);
      sys_.end_lane();
    }
    if (!sys_.factor_batch()) {
      // A lane's replayed pivots broke down: the scalar path would re-pivot
      // here, so the whole batch demotes to per-lane scalar replay.
      demoted = true;
      break;
    }
    x_new.assign(sys_.batch_rhs().begin(), sys_.batch_rhs().end());
    sys_.solve_batch(x_new);

    // 3) Per-lane damped update + convergence test (scalar newton_step).
    for (std::size_t l = 0; l < lanes; ++l) {
      Lane& s = lane[l];
      if (s.done) continue;
      bool singular = false;
      bool converged = true;
      for (std::size_t i = 0; i < n; ++i) {
        const double v = x_new[i * lanes + l];
        if (!std::isfinite(v)) {
          singular = true;
          break;
        }
        double delta = v - s.x_trial[i];
        if (i < nodes) {
          if (std::fabs(delta) > dc.max_update) {
            delta = std::copysign(dc.max_update, delta);
            converged = false;
          }
          if (std::fabs(delta) >
              dc.v_tol + dc.rel_tol * std::fabs(s.x_trial[i])) {
            converged = false;
          }
        } else {
          if (std::fabs(delta) >
              dc.i_tol + dc.rel_tol * std::fabs(s.x_trial[i])) {
            converged = false;
          }
        }
        s.x_trial[i] += delta;
      }
      if (singular) {
        finish(s, SolveStatus::kSingular);
        continue;
      }
      if (converged) {
        s.in_newton = false;
        post_newton(l);
      } else if (++s.newton_iter >= dc.max_iterations) {
        // Scalar newton_step ran out of iterations: reject and retry at a
        // quarter step, or give up exactly where scalar run() would.
        s.in_newton = false;
        if (s.h <= dt_min * 1.000001 || !options.adaptive) {
          finish(s, SolveStatus::kNoConvergence);
          continue;
        }
        s.h_next = std::max(s.h * 0.25, dt_min);
        s.be_left = std::max(s.be_left, 1);
        ++s.res.stats.rejected;
      }
    }
  }
  sys_.end_batch();
  if (demoted) return false;

  results->resize(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    (*results)[l] = std::move(lane[l].res);
  }
  return true;
}

}  // namespace moheco::spice
