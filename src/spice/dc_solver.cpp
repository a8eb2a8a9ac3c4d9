#include "src/spice/dc_solver.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"
#include "src/common/failpoint.hpp"

namespace moheco::spice {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOk: return "ok";
    case SolveStatus::kNoConvergence: return "no-convergence";
    case SolveStatus::kSingular: return "singular";
  }
  return "?";
}

DcSolver::DcSolver(const Netlist& netlist)
    : netlist_(netlist), layout_(netlist) {
  netlist.validate();
  sys_.reset(layout_.size());
}

std::uint64_t DcSolver::pattern_key() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over structure counts
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  mix(layout_.size());
  mix(layout_.num_nodes());
  mix(netlist_.mosfets().size());
  mix(netlist_.resistors().size());
  mix(netlist_.vsources().size());
  mix(netlist_.isources().size());
  mix(netlist_.vcvs().size());
  return h;
}

void stamp_linear_static(const Netlist& netlist, const MnaLayout& layout,
                         Stamper<double>& stamper, double gmin,
                         double source_scale, double time) {
  for (std::size_t n = 0; n < layout.num_nodes(); ++n) {
    stamper.add(static_cast<int>(n), static_cast<int>(n), gmin);
  }
  for (const auto& r : netlist.resistors()) {
    stamper.conductance(layout.node_index(r.n1), layout.node_index(r.n2),
                        1.0 / r.resistance);
  }
  for (std::size_t i = 0; i < netlist.vsources().size(); ++i) {
    const auto& v = netlist.vsources()[i];
    const int br = static_cast<int>(layout.vsource_branch(i));
    const int np = layout.node_index(v.np);
    const int nn = layout.node_index(v.nn);
    stamper.add(np, br, 1.0);
    stamper.add(nn, br, -1.0);
    stamper.add(br, np, 1.0);
    stamper.add(br, nn, -1.0);
    stamper.rhs_add(br, time < 0.0 ? v.dc * source_scale : v.value(time));
  }
  for (const auto& i : netlist.isources()) {
    const int np = layout.node_index(i.np);
    const int nn = layout.node_index(i.nn);
    const double value = time < 0.0 ? i.dc * source_scale : i.dc;
    stamper.rhs_add(np, -value);
    stamper.rhs_add(nn, value);
  }
  for (std::size_t i = 0; i < netlist.vcvs().size(); ++i) {
    const auto& e = netlist.vcvs()[i];
    const int br = static_cast<int>(layout.vcvs_branch(i));
    const int np = layout.node_index(e.np);
    const int nn = layout.node_index(e.nn);
    stamper.add(np, br, 1.0);
    stamper.add(nn, br, -1.0);
    stamper.add(br, np, 1.0);
    stamper.add(br, nn, -1.0);
    stamper.add(br, layout.node_index(e.cp), -e.gain);
    stamper.add(br, layout.node_index(e.cn), e.gain);
  }
  for (const auto& g : netlist.vccs()) {
    stamper.transconductance(layout.node_index(g.np), layout.node_index(g.nn),
                             layout.node_index(g.cp), layout.node_index(g.cn),
                             g.gm);
  }
}

void DcSolver::stamp_linear(Stamper<double>& stamper, double gmin,
                            double source_scale) const {
  stamp_linear_static(netlist_, layout_, stamper, gmin, source_scale,
                      /*time=*/-1.0);
  // Capacitors are open at DC.
  for (std::size_t i = 0; i < netlist_.inductors().size(); ++i) {
    const auto& l = netlist_.inductors()[i];
    const int br = static_cast<int>(layout_.inductor_branch(i));
    const int n1 = layout_.node_index(l.n1);
    const int n2 = layout_.node_index(l.n2);
    stamper.add(n1, br, 1.0);
    stamper.add(n2, br, -1.0);
    stamper.add(br, n1, 1.0);
    stamper.add(br, n2, -1.0);  // V(n1) - V(n2) = 0: DC short
  }
}

void stamp_mosfets_large_signal(const Netlist& netlist,
                                const MnaLayout& layout,
                                Stamper<double>& stamper,
                                const std::vector<double>& x) {
  auto voltage = [&](NodeId n) -> double {
    return n == 0 ? 0.0 : x[static_cast<std::size_t>(n - 1)];
  };
  for (const auto& m : netlist.mosfets()) {
    const double vgs = voltage(m.g) - voltage(m.s);
    const double vds = voltage(m.d) - voltage(m.s);
    const double vbs = voltage(m.b) - voltage(m.s);
    double id = 0.0, gm = 0.0, gds = 0.0, gmb = 0.0;
    if (!m.is_pmos) {
      const MosEval e = eval_mos(m.model, m.w_eff(), m.l_eff(), vgs, vds, vbs);
      id = e.id;
      gm = e.gm;
      gds = e.gds;
      gmb = e.gmb;
    } else {
      // PMOS: evaluate the NMOS-convention model with flipped voltages.
      // Current direction flips; all conductances keep their signs.
      const MosEval e =
          eval_mos(m.model, m.w_eff(), m.l_eff(), -vgs, -vds, -vbs);
      id = -e.id;
      gm = e.gm;
      gds = e.gds;
      gmb = e.gmb;
    }
    const double ieq = id - gm * vgs - gds * vds - gmb * vbs;
    const int d = layout.node_index(m.d);
    const int g = layout.node_index(m.g);
    const int s = layout.node_index(m.s);
    const int b = layout.node_index(m.b);
    stamper.add(d, g, gm);
    stamper.add(d, d, gds);
    stamper.add(d, b, gmb);
    stamper.add(d, s, -(gm + gds + gmb));
    stamper.add(s, g, -gm);
    stamper.add(s, d, -gds);
    stamper.add(s, b, -gmb);
    stamper.add(s, s, gm + gds + gmb);
    stamper.rhs_add(d, -ieq);
    stamper.rhs_add(s, ieq);
  }
}

void DcSolver::stamp_mosfets(Stamper<double>& stamper,
                             const std::vector<double>& x) const {
  stamp_mosfets_large_signal(netlist_, layout_, stamper, x);
}

SolveStatus DcSolver::newton_loop(const DcOptions& options, double gmin,
                                  double source_scale,
                                  std::vector<double>& x) {
  const std::size_t n = layout_.size();
  const std::size_t nodes = layout_.num_nodes();
  if (fail::should_fail(fail::Site::kNewton)) {
    return SolveStatus::kNoConvergence;
  }
  std::vector<double> x_new(n);
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    ++last_iterations_;
    sys_.begin_assembly();
    Stamper<double> stamper(sys_);
    stamp_linear(stamper, gmin, source_scale);
    stamp_mosfets(stamper, x);
    sys_.end_assembly();
    x_new = sys_.rhs();
    if (!sys_.factor()) return SolveStatus::kSingular;
    sys_.solve(x_new);

    bool converged = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(x_new[i])) return SolveStatus::kSingular;
      double delta = x_new[i] - x[i];
      const bool is_node = i < nodes;
      if (is_node) {
        // Clamp the voltage update; a clamped step is never "converged".
        if (std::fabs(delta) > options.max_update) {
          delta = std::copysign(options.max_update, delta);
          converged = false;
        }
        if (std::fabs(delta) >
            options.v_tol + options.rel_tol * std::fabs(x[i])) {
          converged = false;
        }
      } else {
        if (std::fabs(delta) >
            options.i_tol + options.rel_tol * std::fabs(x[i])) {
          converged = false;
        }
      }
      x[i] += delta;
    }
    if (converged) return SolveStatus::kOk;
  }
  return SolveStatus::kNoConvergence;
}

bool DcSolver::solve_batch(const DcOptions& options, std::size_t lanes,
                           const std::function<void(std::size_t)>& activate_lane,
                           const std::vector<double>& warm,
                           std::vector<OperatingPoint>* ops) {
  const std::size_t n = layout_.size();
  const std::size_t nodes = layout_.num_nodes();
  if (lanes == 0 || !sys_.batch_ready() || warm.size() != n) return false;
  last_iterations_ = 0;

  // Per-lane iterates, all seeded from the shared (nominal) warm start --
  // exactly what the scalar per-sample path does.
  std::vector<std::vector<double>> x(lanes, warm);
  std::vector<char> active(lanes, 1);
  std::size_t num_active = lanes;
  std::vector<double> x_new;
  bool failed = false;

  sys_.begin_batch(lanes);
  for (int iteration = 0;
       iteration < options.max_iterations && num_active > 0; ++iteration) {
    ++last_iterations_;
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!active[l]) continue;  // frozen lanes keep their last assembly
      activate_lane(l);
      sys_.begin_lane(l);
      Stamper<double> stamper(sys_);
      stamp_linear(stamper, options.gmin, 1.0);
      stamp_mosfets(stamper, x[l]);
      sys_.end_lane();
    }
    if (!sys_.factor_batch()) {
      failed = true;  // a lane's pivots broke down: scalar would re-pivot
      break;
    }
    x_new = sys_.batch_rhs();
    sys_.solve_batch(x_new);

    for (std::size_t l = 0; l < lanes && !failed; ++l) {
      if (!active[l]) continue;
      bool converged = true;
      for (std::size_t i = 0; i < n; ++i) {
        const double v = x_new[i * lanes + l];
        if (!std::isfinite(v)) {
          failed = true;  // scalar reports kSingular and takes the ladder
          break;
        }
        double delta = v - x[l][i];
        const bool is_node = i < nodes;
        if (is_node) {
          if (std::fabs(delta) > options.max_update) {
            delta = std::copysign(options.max_update, delta);
            converged = false;
          }
          if (std::fabs(delta) >
              options.v_tol + options.rel_tol * std::fabs(x[l][i])) {
            converged = false;
          }
        } else {
          if (std::fabs(delta) >
              options.i_tol + options.rel_tol * std::fabs(x[l][i])) {
            converged = false;
          }
        }
        x[l][i] += delta;
      }
      if (converged) {
        active[l] = 0;
        --num_active;
      }
    }
    if (failed) break;
  }
  sys_.end_batch();
  // Non-convergence of any lane sends the whole batch to the scalar path:
  // that lane's continuation stages may re-pivot the shared factorization.
  if (failed || num_active > 0) return false;

  ops->resize(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    activate_lane(l);
    extract_op(x[l]);
    (*ops)[l] = op_;
  }
  return true;
}

SolveStatus DcSolver::solve(const DcOptions& options,
                            std::vector<double>* warm_start) {
  last_iterations_ = 0;
  const std::size_t n = layout_.size();
  std::vector<double> x(n, 0.0);
  const bool have_warm =
      warm_start != nullptr && warm_start->size() == n;
  if (have_warm) x = *warm_start;

  SolveStatus status = newton_loop(options, options.gmin, 1.0, x);

  if (status != SolveStatus::kOk && options.gmin_stepping) {
    // Continuation in gmin from a flat start.
    std::fill(x.begin(), x.end(), 0.0);
    status = SolveStatus::kOk;
    for (double gmin = 1e-3; gmin >= options.gmin * 0.999; gmin *= 0.01) {
      status = newton_loop(options, gmin, 1.0, x);
      if (status != SolveStatus::kOk) break;
    }
    if (status == SolveStatus::kOk) {
      status = newton_loop(options, options.gmin, 1.0, x);
    }
  }

  if (status != SolveStatus::kOk && options.source_stepping) {
    std::fill(x.begin(), x.end(), 0.0);
    status = SolveStatus::kOk;
    for (int step = 1; step <= 10; ++step) {
      status = newton_loop(options, 1e-9, 0.1 * step, x);
      if (status != SolveStatus::kOk) break;
    }
    if (status == SolveStatus::kOk) {
      status = newton_loop(options, options.gmin, 1.0, x);
    }
  }

  if (status != SolveStatus::kOk) return status;
  if (have_warm || warm_start != nullptr) {
    if (warm_start != nullptr) *warm_start = x;
  }
  extract_op(x);
  return SolveStatus::kOk;
}

void DcSolver::extract_op(const std::vector<double>& x) {
  op_.solution = x;
  op_.node_voltage.assign(layout_.num_nodes() + 1, 0.0);
  for (std::size_t i = 0; i < layout_.num_nodes(); ++i) {
    op_.node_voltage[i + 1] = x[i];
  }
  auto voltage = [&](NodeId n) { return op_.node_voltage[n]; };

  op_.mosfets.clear();
  op_.mosfets.reserve(netlist_.mosfets().size());
  for (const auto& m : netlist_.mosfets()) {
    MosOp rec;
    rec.vgs = voltage(m.g) - voltage(m.s);
    rec.vds = voltage(m.d) - voltage(m.s);
    rec.vbs = voltage(m.b) - voltage(m.s);
    if (!m.is_pmos) {
      rec.eval = eval_mos(m.model, m.w_eff(), m.l_eff(), rec.vgs, rec.vds,
                          rec.vbs);
      rec.sat_margin = rec.vds - rec.eval.vdsat;
    } else {
      rec.eval =
          eval_mos(m.model, m.w_eff(), m.l_eff(), -rec.vgs, -rec.vds, -rec.vbs);
      rec.eval.id = -rec.eval.id;  // actual drain current (flows s -> d)
      rec.sat_margin = -rec.vds - rec.eval.vdsat;
    }
    rec.caps = mos_caps(m.model, m.w_eff(), m.l_eff(), rec.eval.saturated);
    op_.mosfets.push_back(rec);
  }

  op_.vsource_current.resize(netlist_.vsources().size());
  for (std::size_t i = 0; i < netlist_.vsources().size(); ++i) {
    op_.vsource_current[i] = x[layout_.vsource_branch(i)];
  }
}

}  // namespace moheco::spice
