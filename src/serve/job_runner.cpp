#include "src/serve/job_runner.hpp"

#include <sstream>
#include <utility>

#include "src/circuits/netlist_problem.hpp"
#include "src/common/error.hpp"
#include "src/common/failpoint.hpp"
#include "src/common/failure_ladder.hpp"
#include "src/common/hash.hpp"
#include "src/common/json.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/spice/netlist_format.hpp"

namespace moheco::serve {

const char* to_string(JobMode mode) {
  switch (mode) {
    case JobMode::kNominal: return "nominal";
    case JobMode::kEstimate: return "estimate";
    case JobMode::kOptimize: return "optimize";
  }
  return "optimize";
}

bool parse_job_mode(const std::string& text, JobMode* out) {
  if (text == "nominal") *out = JobMode::kNominal;
  else if (text == "estimate") *out = JobMode::kEstimate;
  else if (text == "optimize") *out = JobMode::kOptimize;
  else return false;
  return true;
}

std::string deck_content_hash(const std::string& deck_text) {
  return hex16(fnv1a64(deck_text));
}

std::string warm_fingerprint(const JobSpec& spec) {
  std::ostringstream oss;
  oss << "warm1 transient=" << (spec.eval.transient ? 1 : 0);
  return oss.str();
}

std::string result_fingerprint(const JobSpec& spec, int workers) {
  const core::MohecoOptions& m = spec.moheco;
  std::ostringstream oss;
  // deck_name is part of the fingerprint because it shapes the result JSON
  // ("deck" field); unlike the warm key, an exact-repeat hit must replay
  // the SAME bytes the fresh run would emit.
  oss << "res3 name=" << spec.deck_name
      << " mode=" << to_string(spec.mode) << " seed=" << m.seed
      << " sampling=" << stats::to_string(m.estimation.mc.sampling) << ' '
      << warm_fingerprint(spec)
      << " sized=" << (spec.want_sized_deck ? 1 : 0);
  // A healthy result is a function of the inputs alone: the same bytes at
  // any pool width, checkpointed or not, so those stay out of the key and
  // such jobs share one result-cache row.  An armed run's results are an
  // injection experiment, never interchangeable with (or reusable for) a
  // healthy run's; and its prob: decisions follow per-site hit ordinals,
  // which interleave across workers and shift with a resume, so the pool
  // width and the checkpoint bit join the key there.
  if (fail::armed()) {
    oss << " faults=" << fail::spec_string() << " workers=" << workers;
    if (!m.checkpoint_dir.empty()) oss << " ckpt=1";
  }
  if (spec.mode == JobMode::kEstimate) {
    oss << " samples=" << spec.estimate_samples;
  }
  if (spec.mode == JobMode::kOptimize) {
    oss << " pop=" << m.population << " maxgen=" << m.max_generations
        << " stop=" << m.stop_stagnation
        << " lsstag=" << m.local_search_stagnation
        << " nm=" << m.nm_max_iterations << " ocba=" << (m.use_ocba ? 1 : 0)
        << " budget=" << m.fixed_budget << " memetic=" << (m.use_memetic ? 1 : 0)
        << " n0=" << m.estimation.n0 << " simavg=" << m.estimation.sim_avg
        << " delta=" << m.estimation.delta << " nmax=" << m.estimation.n_max
        << " s2=" << m.estimation.stage2_threshold << " f=" << m.de.f
        << " cr=" << m.de.cr << " base=" << static_cast<int>(m.de.base);
  }
  return oss.str();
}

std::string warm_cache_key(const JobSpec& spec) {
  // Deck CONTENT hash + blob-validity options only: no path component (the
  // same deck submitted from a different path must hit), and no seed/mode
  // (warm blobs hold nominal state, valid for any sample stream).
  return "warmblobs_" + deck_content_hash(spec.deck_text) + "_" +
         hex16(fnv1a64(warm_fingerprint(spec)));
}

std::string result_cache_key(const JobSpec& spec, int workers) {
  return "serveres_" + deck_content_hash(spec.deck_text) + "_" +
         hex16(fnv1a64(result_fingerprint(spec, workers)));
}

namespace {

std::string json_design(const circuits::DeckTopology& topology,
                        std::span<const double> x) {
  JsonObject obj;
  const auto& vars = topology.design_vars();
  for (std::size_t i = 0; i < vars.size() && i < x.size(); ++i) {
    obj.add_number(vars[i].name, x[i]);
  }
  return obj.str();
}

std::string json_performance(const circuits::Performance& perf) {
  JsonObject obj;
  obj.add_bool("valid", perf.valid);
  obj.add_number("a0_db", perf.a0_db);
  obj.add_number("gbw", perf.gbw);
  obj.add_number("pm_deg", perf.pm_deg);
  obj.add_number("swing", perf.swing);
  obj.add_number("power", perf.power);
  obj.add_number("offset", perf.offset);
  obj.add_number("area", perf.area);
  obj.add_number("sat_margin", perf.sat_margin);
  obj.add_number("slew_rate", perf.slew_rate);
  obj.add_number("settling_time", perf.settling_time);
  return obj.str();
}

/// Per-reason quarantine counters plus the degradation-ladder stages hit
/// during this job.  Emitted only when fail points are armed or something
/// actually degraded, so healthy-run JSON stays byte-identical to before
/// the fault-containment layer existed.
std::string json_fail_breakdown(const mc::FailBreakdown& b,
                                const fail::LadderSnapshot& ladder) {
  JsonObject obj;
  obj.add_int("quarantine_open", b.quarantine_open);
  obj.add_int("quarantine_eval", b.quarantine_eval);
  obj.add_int("quarantine_screen", b.quarantine_screen);
  for (int i = 0; i < fail::kNumLadderStages; ++i) {
    obj.add_int(fail::ladder_name(static_cast<fail::Ladder>(i)),
                static_cast<long long>(ladder.counts[i]));
  }
  obj.add_int("total", b.total() + static_cast<long long>(ladder.total()));
  return obj.str();
}

bool want_fail_breakdown(const mc::FailBreakdown& b,
                         const fail::LadderSnapshot& ladder) {
  return fail::armed() || b.total() > 0 || ladder.total() > 0;
}

/// Guarantees the scheduler drops every session/blob tied to a job-local
/// problem, whatever path run() exits through.
class ProblemGuard {
 public:
  ProblemGuard(mc::EvalScheduler& scheduler, const mc::YieldProblem& problem)
      : scheduler_(&scheduler), problem_(&problem) {}
  ~ProblemGuard() { scheduler_->forget_problem(problem_); }
  ProblemGuard(const ProblemGuard&) = delete;
  ProblemGuard& operator=(const ProblemGuard&) = delete;

 private:
  mc::EvalScheduler* scheduler_;
  const mc::YieldProblem* problem_;
};

bool is_cancelled(const std::atomic<bool>* cancel) {
  return cancel != nullptr && cancel->load(std::memory_order_relaxed);
}

}  // namespace

JobRunner::JobRunner(ThreadPool& pool, mc::SchedulerOptions options)
    : pool_(&pool), scheduler_(pool, options) {}

JobResult JobRunner::run(const JobSpec& spec, const ResultMap* warm_blobs,
                         const std::atomic<bool>* cancel) {
  JobResult out;
  if (is_cancelled(cancel)) {
    out.error_code = "cancelled";
    out.error = "job cancelled before it started";
    return out;
  }
  const fail::LadderSnapshot ladder_before = fail::ladder_snapshot();
  try {
    spice::Deck deck = spice::parse_deck_string(spec.deck_text, spec.deck_name);
    circuits::NetlistYieldProblem problem(std::move(deck), spec.eval);
    ProblemGuard guard(scheduler_, problem);
    const circuits::DeckTopology& topology = problem.deck_topology();
    const std::vector<double> nominal = problem.nominal_x();

    if (warm_blobs != nullptr && !warm_blobs->empty()) {
      out.warm_blobs_imported = scheduler_.import_blobs(problem, *warm_blobs);
    }

    JsonObject json;
    json.add_string("deck", spec.deck_name);
    json.add_string("title", topology.name());
    json.add_int("seed", static_cast<long long>(spec.moheco.seed));
    json.add_int("num_design_vars",
                 static_cast<long long>(problem.num_design_vars()));
    json.add_int("noise_dim", static_cast<long long>(problem.noise_dim()));
    json.add_int("num_transistors", topology.num_transistors());
    json.add_int("num_specs", static_cast<long long>(topology.specs().size()));
    json.add_int("num_transient_specs",
                 static_cast<long long>(topology.transient_specs().size()));

    std::vector<double> reported_x = nominal;

    if (spec.mode == JobMode::kNominal) {
      json.add_string("mode", "nominal");
      const circuits::Performance perf =
          problem.performance(nominal, /*xi=*/{});
      json.add_raw("nominal_performance", json_performance(perf));
      json.add_bool("nominal_pass", circuits::passes(perf, problem.specs()));
    } else if (spec.mode == JobMode::kEstimate) {
      json.add_string("mode", "estimate");
      mc::SimCounter sims;
      const double yield = mc::reference_yield(
          problem, nominal, spec.estimate_samples, spec.moheco.seed,
          scheduler_, spec.moheco.estimation.mc.sampling, &sims);
      json.add_number("yield", yield);
      json.add_int("samples", spec.estimate_samples);
      json.add_int("warm_blobs_imported",
                   static_cast<long long>(out.warm_blobs_imported));
      const fail::LadderSnapshot ladder =
          fail::ladder_delta(ladder_before, fail::ladder_snapshot());
      const mc::FailBreakdown fails = sims.fail_breakdown();
      if (want_fail_breakdown(fails, ladder)) {
        json.add_raw("fail_breakdown", json_fail_breakdown(fails, ladder));
      }
    } else {
      json.add_string("mode", "optimize");
      core::MohecoOptions moheco = spec.moheco;
      if (cancel != nullptr) {
        moheco.should_stop = [cancel] {
          return cancel->load(std::memory_order_relaxed);
        };
      }
      core::MohecoOptimizer optimizer(problem, moheco, scheduler_);
      const core::MohecoResult result = optimizer.run();
      if (result.cancelled) {
        out.warm_blobs = scheduler_.export_blobs();
        out.error_code = "cancelled";
        out.error = "job cancelled after " +
                    std::to_string(result.generations) + " generations";
        return out;
      }
      reported_x = result.best.x;
      json.add_bool("feasible", result.best.fitness.feasible);
      json.add_number("best_yield", result.best.fitness.yield);
      json.add_number("violation", result.best.fitness.violation);
      json.add_int("best_samples", result.best.samples);
      json.add_int("generations", result.generations);
      json.add_int("total_simulations", result.total_simulations);
      json.add_bool("reached_full_yield", result.reached_full_yield);
      json.add_int("warm_blobs_imported",
                   static_cast<long long>(out.warm_blobs_imported));
      json.add_raw("sim_breakdown",
                   mc::json_sim_breakdown(result.sim_breakdown));
      const fail::LadderSnapshot ladder =
          fail::ladder_delta(ladder_before, fail::ladder_snapshot());
      if (want_fail_breakdown(result.fail_breakdown, ladder)) {
        json.add_raw("fail_breakdown",
                     json_fail_breakdown(result.fail_breakdown, ladder));
      }
    }

    json.add_raw("design", json_design(topology, reported_x));

    if (spec.want_sized_deck) {
      out.sized_deck = spice::to_spice_deck(problem.sized_netlist(reported_x),
                                            topology.name() + " (sized)");
    }
    // Export before the guard forgets the problem: the blob snapshot is the
    // only warm state that survives this job.
    out.warm_blobs = scheduler_.export_blobs();
    out.json = json.str();
    out.ok = true;
    return out;
  } catch (const spice::DeckError& e) {
    out.error_code = "bad_deck";
    out.error = e.what();
    return out;
  } catch (const Error& e) {
    out.error_code = "internal";
    out.error = e.what();
    return out;
  } catch (const std::exception& e) {
    out.error_code = "internal";
    out.error = e.what();
    return out;
  }
}

}  // namespace moheco::serve
