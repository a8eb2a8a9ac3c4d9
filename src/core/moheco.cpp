#include "src/core/moheco.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"
#include "src/common/log.hpp"
#include "src/core/checkpoint.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/opt/nelder_mead.hpp"
#include "src/stats/rng.hpp"

namespace moheco::core {

MohecoOptimizer::MohecoOptimizer(const mc::YieldProblem& problem,
                                 MohecoOptions options)
    : problem_(&problem),
      options_(options),
      owned_pool_(std::make_unique<ThreadPool>(options.threads)),
      owned_scheduler_(
          std::make_unique<mc::EvalScheduler>(*owned_pool_, options.scheduler)),
      scheduler_(owned_scheduler_.get()),
      rng_(stats::derive_seed(options.seed, 0xDE05)) {
  init_bounds(problem);
}

MohecoOptimizer::MohecoOptimizer(const mc::YieldProblem& problem,
                                 MohecoOptions options,
                                 mc::EvalScheduler& scheduler)
    : problem_(&problem),
      options_(options),
      scheduler_(&scheduler),
      rng_(stats::derive_seed(options.seed, 0xDE05)) {
  init_bounds(problem);
}

void MohecoOptimizer::init_bounds(const mc::YieldProblem& problem) {
  require(options_.population >= 4, "MohecoOptimizer: population must be >= 4");
  const std::size_t dim = problem.num_design_vars();
  bounds_.lo.resize(dim);
  bounds_.hi.resize(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    bounds_.lo[i] = problem.lower_bound(i);
    bounds_.hi[i] = problem.upper_bound(i);
    require(bounds_.lo[i] < bounds_.hi[i],
            "MohecoOptimizer: empty design range");
  }
}

void MohecoOptimizer::refresh_population_fitness() {
  for (Member& m : population_) {
    if (!m.tally) continue;
    if (m.tally->failed()) {
      // Quarantined mid-refinement (see EvalScheduler::flush): demote to
      // the worst infeasible fitness so the next Deb selection replaces the
      // member with anything healthy.  Default Fitness{} carries the
      // sentinel violation (1e30), strictly worse than any real screen
      // violation.
      m.fitness = opt::Fitness{};
      m.samples = m.tally->samples();
    } else {
      m.fitness.yield = m.tally->mean();
      m.samples = m.tally->samples();
    }
  }
}

std::vector<MohecoOptimizer::Evaluated> MohecoOptimizer::evaluate_batch(
    const std::vector<std::vector<double>>& xs, GenerationTrace* trace) {
  const std::size_t count = xs.size();
  std::vector<std::shared_ptr<mc::CandidateYield>> candidates;
  candidates.reserve(count);
  for (const auto& x : xs) {
    candidates.push_back(std::make_shared<mc::CandidateYield>(
        *problem_, x,
        stats::derive_seed(options_.seed, 0x5EED, ++stream_counter_)));
  }

  // Acceptance-sampling screen: nominal feasibility of the whole generation
  // as one batched job set on the scheduler (sessions opened here stay
  // cached for the estimation below).
  std::vector<mc::CandidateYield*> screen_batch;
  screen_batch.reserve(count);
  for (auto& c : candidates) screen_batch.push_back(c.get());
  {
    obs::Span screen_span("moheco.screen", static_cast<std::int64_t>(count));
    scheduler_->screen(screen_batch, sims_);
  }

  // Fold the previous call's stage-2 samples into the surviving
  // population's fitness before the new OCBA pool is assembled.
  refresh_population_fitness();

  // The OO candidate pool of this generation: feasible new candidates plus
  // the feasible current population (whose tallies persist and keep
  // refining under the same OCBA rule).
  std::vector<mc::CandidateYield*> ocba_pool;
  for (auto& c : candidates) {
    if (c->nominal_feasible() && !c->failed()) ocba_pool.push_back(c.get());
  }
  const int num_feasible_new = static_cast<int>(ocba_pool.size());
  obs::Span estimate_span("moheco.estimate",
                          static_cast<std::int64_t>(ocba_pool.size()));
  if (options_.use_ocba) {
    for (Member& m : population_) {
      if (m.tally && !m.tally->failed()) ocba_pool.push_back(m.tally.get());
    }
    // Stage-2 batches stay pending (streams already consumed) until the
    // stage-1/OCBA estimates below are recorded: Deb selection compares
    // those, and the stage-2 samples reach fitness at the next call's
    // refresh.
    mc::two_stage_estimate(ocba_pool, options_.estimation, *scheduler_, sims_,
                           /*flush_stage2=*/false);
    refresh_population_fitness();
  } else {
    // Fixed-budget baseline: one generation-wide job set, no stage 2.
    for (mc::CandidateYield* c : ocba_pool) {
      scheduler_->enqueue(*c, options_.fixed_budget - c->samples(),
                         options_.estimation.mc);
    }
    scheduler_->flush(sims_);
  }

  std::vector<Evaluated> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const mc::CandidateYield& c = *candidates[i];
    Evaluated& e = out[i];
    if (c.failed()) {
      // Quarantined (session open / screen / estimation threw): worst
      // infeasible fitness, so the trial never enters the population.  Not
      // infeasible_fitness(nominal_violation()): a screen-quarantined
      // candidate was never screened, so its violation is a meaningless 0
      // that would outrank genuinely infeasible candidates.
      e.fitness = opt::Fitness{};
    } else if (c.nominal_feasible()) {
      e.fitness = opt::feasible_fitness(c.mean());
      e.samples = c.samples();
      e.tally = candidates[i];
      if (trace != nullptr) {
        trace->data_points.emplace_back(c.x(), c.mean());
      }
    } else {
      e.fitness = opt::infeasible_fitness(c.nominal_violation());
      e.samples = 0;
    }
  }
  if (trace != nullptr) {
    trace->num_feasible_trials += num_feasible_new;
    for (const mc::CandidateYield* c : ocba_pool) {
      trace->estimated.emplace_back(c->mean(), c->samples());
    }
  }
  // Land the stage-2 promotions: no work stays pending past this call.
  scheduler_->flush(sims_);
  return out;
}

MohecoOptimizer::Evaluated MohecoOptimizer::evaluate_accurate(
    std::span<const double> x) {
  auto candidate = std::make_shared<mc::CandidateYield>(
      *problem_, std::vector<double>(x.begin(), x.end()),
      stats::derive_seed(options_.seed, 0x5EED, ++stream_counter_));
  mc::CandidateYield* one[] = {candidate.get()};
  scheduler_->screen(one, sims_);
  Evaluated e;
  if (candidate->failed()) return e;  // quarantined: worst infeasible
  if (!candidate->nominal_feasible()) {
    e.fitness = opt::infeasible_fitness(candidate->nominal_violation());
    return e;
  }
  const int n_report =
      options_.use_ocba ? options_.estimation.n_max : options_.fixed_budget;
  scheduler_->refine(*candidate, n_report, sims_, options_.estimation.mc);
  if (candidate->failed()) return e;  // quarantined mid-refinement
  e.fitness = opt::feasible_fitness(candidate->mean());
  e.samples = candidate->samples();
  e.tally = std::move(candidate);
  return e;
}

std::size_t MohecoOptimizer::best_index() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < population_.size(); ++i) {
    if (opt::deb_better(population_[i].fitness, population_[best].fitness)) {
      best = i;
    }
  }
  return best;
}

void MohecoOptimizer::local_search(Member& best, GenerationTrace* trace) {
  obs::Span ls_span("moheco.local_search");
  if (trace != nullptr) trace->local_search_triggered = true;
  opt::NelderMeadOptions nm_options;
  nm_options.max_iterations = options_.nm_max_iterations;
  Evaluated incumbent;
  incumbent.fitness = best.fitness;
  incumbent.samples = best.samples;

  // Cache the accurate evaluations so the final comparison can reuse them.
  std::vector<std::pair<std::vector<double>, Evaluated>> seen;
  auto objective = [&](std::span<const double> x) {
    Evaluated e = evaluate_accurate(x);
    seen.emplace_back(std::vector<double>(x.begin(), x.end()), e);
    return opt::deb_scalar(e.fitness);
  };
  const opt::NelderMeadResult nm =
      opt::nelder_mead(objective, best.x, bounds_, nm_options);

  // Find the evaluation record of the NM winner.
  for (const auto& [x, e] : seen) {
    if (x == nm.best_x && opt::deb_better(e.fitness, incumbent.fitness)) {
      log_info("local search improved best yield ", incumbent.fitness.yield,
               " -> ", e.fitness.yield);
      best.x = x;
      best.fitness = e.fitness;
      best.samples = e.samples;
      best.tally = e.tally;
      return;
    }
  }
}

MohecoResult MohecoOptimizer::run() {
  try {
    return run_impl();
  } catch (...) {
    // A throw between an enqueue and its flush leaves jobs that point at
    // this run's candidates; drop them so the scheduler, which a serving
    // daemon shares across jobs, is clean for its next user.
    scheduler_->discard_pending();
    throw;
  }
}

MohecoResult MohecoOptimizer::run_impl() {
  const int max_generations = options_.max_generations;
  obs::Span run_span("moheco.run", max_generations);
  static obs::Counter& c_runs = obs::registry().counter("moheco.runs");
  c_runs.add(1);
  MohecoResult result;
  sims_.reset();
  population_.clear();
  stream_counter_ = 0;
  last_local_search_x_.clear();

  const int n_report =
      options_.use_ocba ? options_.estimation.n_max : options_.fixed_budget;

  // A job cancelled before any work: report an empty (infeasible) result
  // without paying for the initial population.
  if (options_.should_stop && options_.should_stop()) {
    result.cancelled = true;
    return result;
  }

  const bool checkpointing = !options_.checkpoint_dir.empty();
  double best_scalar = 0.0;
  int stagnant_ls = 0;    // generations since improvement (local search)
  int stagnant_stop = 0;  // generations since improvement (stopping rule)
  int start_gen = 1;
  bool loop_done = false;  // restored loop already hit its stopping rule

  bool resumed = false;
  if (checkpointing && options_.resume) {
    resumed = resume_from_checkpoint(result, best_scalar, stagnant_ls,
                                     stagnant_stop, start_gen, loop_done);
    if (resumed) {
      log_info("resumed from checkpoint at generation ", start_gen - 1,
               loop_done ? " (loop complete, replaying final report)" : "");
    }
  }

  if (!resumed) {
    // --- Initialization (Step 0). ---
    std::vector<std::vector<double>> initial;
    initial.reserve(static_cast<std::size_t>(options_.population));
    for (int i = 0; i < options_.population; ++i) {
      initial.push_back(opt::random_point(bounds_, rng_));
    }
    GenerationTrace init_trace;
    init_trace.generation = 0;
    std::vector<Evaluated> evaluated = evaluate_batch(initial, &init_trace);
    population_.resize(initial.size());
    for (std::size_t i = 0; i < initial.size(); ++i) {
      population_[i].x = std::move(initial[i]);
      population_[i].fitness = evaluated[i].fitness;
      population_[i].samples = evaluated[i].samples;
      population_[i].tally = std::move(evaluated[i].tally);
    }
    {
      const Member& b = population_[best_index()];
      init_trace.best_yield = b.fitness.yield;
      init_trace.best_feasible = b.fitness.feasible;
      init_trace.sims_cumulative = sims_.total();
      result.trace.push_back(std::move(init_trace));
    }
    best_scalar = opt::deb_scalar(population_[best_index()].fitness);
    if (checkpointing) {
      write_checkpoint(0, false, result, best_scalar, stagnant_ls,
                       stagnant_stop);
    }
  }

  for (int gen = start_gen; !loop_done && gen <= max_generations; ++gen) {
    // Cooperative cancellation: polled at the generation boundary, where
    // no evaluation work is pending.
    if (options_.should_stop && options_.should_stop()) {
      result.cancelled = true;
      break;
    }
    obs::Span gen_span("moheco.generation", gen);
    static obs::Counter& c_gens = obs::registry().counter("moheco.generations");
    static obs::Histogram& gen_ms =
        obs::registry().histogram("moheco.generation_ms");
    c_gens.add(1);
    struct GenTimer {
      obs::Histogram& hist;
      std::uint64_t start = obs::timing_enabled() ? obs::now_ns() : 0;
      ~GenTimer() {
        if (start != 0) hist.record((obs::now_ns() - start) / 1000000);
      }
    } gen_timer{gen_ms};
    GenerationTrace trace;
    trace.generation = gen;

    // Steps 1-2: base vector selection + DE variation.  The whole trial
    // generation exists before any evaluation, so the screen and the
    // estimation below batch across the population.
    const std::size_t best = best_index();
    std::vector<std::vector<double>> member_xs(population_.size());
    for (std::size_t i = 0; i < population_.size(); ++i) {
      member_xs[i] = population_[i].x;
    }
    std::vector<std::vector<double>> trials =
        opt::de_generation(member_xs, best, options_.de, bounds_, rng_);

    // Steps 3-7: screening + two-stage (or fixed-budget) estimation.
    std::vector<Evaluated> evaluated = evaluate_batch(trials, &trace);

    // Step 8: one-to-one Deb selection.
    for (std::size_t i = 0; i < population_.size(); ++i) {
      if (opt::deb_better(evaluated[i].fitness, population_[i].fitness)) {
        population_[i].x = std::move(trials[i]);
        population_[i].fitness = evaluated[i].fitness;
        population_[i].samples = evaluated[i].samples;
        population_[i].tally = std::move(evaluated[i].tally);
      }
    }

    // Steps 9-10: memetic local search on stagnation.
    Member& current_best = population_[best_index()];
    double scalar = opt::deb_scalar(current_best.fitness);
    if (scalar < best_scalar - 1e-12) {
      best_scalar = scalar;
      stagnant_ls = 0;
      stagnant_stop = 0;
    } else {
      ++stagnant_ls;
      ++stagnant_stop;
    }
    if (options_.use_memetic &&
        stagnant_ls >= options_.local_search_stagnation &&
        current_best.fitness.feasible &&
        current_best.x != last_local_search_x_) {
      last_local_search_x_ = current_best.x;
      local_search(current_best, &trace);
      const double after = opt::deb_scalar(current_best.fitness);
      if (after < best_scalar - 1e-12) {
        best_scalar = after;
        stagnant_stop = 0;
      }
      stagnant_ls = 0;
    }

    // A best member at 100% on its stage-1 samples may have been promoted
    // to n_report this generation; fold its stage-2 samples in now, so a
    // run that genuinely reached full yield stops here instead of paying
    // one more generation of screens and pilots before noticing.  Skipped
    // in a generation that ran a local search: the fold decides which DE
    // base vector the next generation picks, so folding there as well
    // would change the trajectory of every run it fires in.
    {
      const Member& maybe = population_[best_index()];
      if (maybe.fitness.feasible && maybe.fitness.yield >= 1.0 &&
          maybe.samples < n_report && !trace.local_search_triggered) {
        refresh_population_fitness();
      }
    }

    const Member& b = population_[best_index()];
    trace.best_yield = b.fitness.yield;
    trace.best_feasible = b.fitness.feasible;
    trace.sims_cumulative = sims_.total();
    result.trace.push_back(std::move(trace));
    result.generations = gen;

    log_info("gen ", gen, " best yield ", b.fitness.yield, " (",
             b.samples, " samples), sims ", sims_.total());

    // Step 11: stopping rule.
    const bool full_yield = b.fitness.feasible && b.fitness.yield >= 1.0 &&
                            b.samples >= n_report;
    if (full_yield) result.reached_full_yield = true;
    const bool stop = full_yield ||
                      stagnant_stop >= options_.stop_stagnation ||
                      gen == max_generations;
    // Checkpoint boundary: persist the complete state.  Written after the
    // stopping decision, so a kill at ANY instant resumes either from this
    // generation or the previous one.
    if (checkpointing) {
      write_checkpoint(gen, stop, result, best_scalar, stagnant_ls,
                       stagnant_stop);
    }
    if (stop) break;
  }

  // Fold the last generation's stage-2 samples into the population
  // fitnesses before picking the reported best.
  refresh_population_fitness();

  // Report the best member with an accurate (n_report) estimate; its tally
  // persists, so only the missing samples are drawn.  A cancelled run skips
  // the refinement: the caller asked to stop, so it gets the best estimate
  // accumulated so far.
  Member best = population_[best_index()];
  if (!result.cancelled && best.fitness.feasible && best.samples < n_report) {
    if (best.tally) {
      scheduler_->refine(*best.tally, n_report - best.samples, sims_,
                        options_.estimation.mc);
      best.fitness.yield = best.tally->mean();
      best.samples = best.tally->samples();
    } else {
      const Evaluated accurate = evaluate_accurate(best.x);
      if (accurate.fitness.feasible) {
        best.fitness = accurate.fitness;
        best.samples = accurate.samples;
      }
    }
  }
  result.best = std::move(best);
  result.sim_breakdown = sims_.breakdown();
  result.fail_breakdown = sims_.fail_breakdown();
  result.total_simulations = result.sim_breakdown.total();
  return result;
}

void MohecoOptimizer::write_checkpoint(int generation, bool done,
                                       const MohecoResult& result,
                                       double best_scalar, int stagnant_ls,
                                       int stagnant_stop) {
  Checkpoint ck;
  ck.seed = options_.seed;
  ck.dim = bounds_.lo.size();
  ck.population = static_cast<int>(population_.size());
  ck.use_ocba = options_.use_ocba;
  ck.generation = generation;
  ck.done = done;
  ck.reached_full_yield = result.reached_full_yield;
  ck.result_generations = result.generations;
  ck.best_scalar = best_scalar;
  ck.stagnant_ls = stagnant_ls;
  ck.stagnant_stop = stagnant_stop;
  ck.stream_counter = stream_counter_;
  ck.rng = rng_.state();
  ck.last_local_search_x = last_local_search_x_;
  ck.sims = sims_.breakdown();
  ck.fails = sims_.fail_breakdown();
  ck.members.reserve(population_.size());
  for (const Member& m : population_) {
    Checkpoint::MemberState ms;
    ms.x = m.x;
    ms.feasible = m.fitness.feasible;
    ms.violation = m.fitness.violation;
    ms.yield = m.fitness.yield;
    ms.samples = m.samples;
    if (m.tally) {
      ms.has_tally = true;
      ms.stream_seed = m.tally->stream_seed();
      ms.tally_samples = m.tally->samples();
      ms.tally_passes = m.tally->passes();
      ms.tally_batches = m.tally->batches();
      ms.screened = m.tally->screened();
      ms.nominal_pass = m.tally->nominal_feasible();
      ms.nominal_violation = m.tally->nominal_violation();
      ms.tally_failed = m.tally->failed();
      ms.fail_reason = static_cast<int>(m.tally->fail_reason());
    }
    ck.members.push_back(std::move(ms));
  }
  // Live sessions park into the blob store but stay cached, so this run
  // continues exactly as an uncheckpointed one.
  // A resumed run re-imports the blobs; its cache decisions differ, which
  // reaches no result while fail points are disarmed.
  ck.blobs = scheduler_->export_blobs();
  save_checkpoint(options_.checkpoint_dir, ck);
}

bool MohecoOptimizer::resume_from_checkpoint(MohecoResult& result,
                                             double& best_scalar,
                                             int& stagnant_ls,
                                             int& stagnant_stop,
                                             int& start_gen, bool& loop_done) {
  std::optional<Checkpoint> loaded = load_checkpoint(options_.checkpoint_dir);
  if (!loaded) return false;  // no checkpoint yet: fresh start
  const Checkpoint& ck = *loaded;
  require(ck.seed == options_.seed,
          "checkpoint: seed does not match this run");
  require(ck.dim == bounds_.lo.size(),
          "checkpoint: design dimension does not match this problem");
  require(ck.population == options_.population &&
              ck.members.size() == static_cast<std::size_t>(ck.population),
          "checkpoint: population size does not match this run");
  require(ck.use_ocba == options_.use_ocba,
          "checkpoint: estimation mode does not match this run");

  population_.clear();
  population_.reserve(ck.members.size());
  for (const Checkpoint::MemberState& ms : ck.members) {
    require(ms.x.size() == ck.dim, "checkpoint: member dimension mismatch");
    Member m;
    m.x = ms.x;
    m.fitness.feasible = ms.feasible;
    m.fitness.violation = ms.violation;
    m.fitness.yield = ms.yield;
    m.samples = ms.samples;
    if (ms.has_tally) {
      m.tally = std::make_shared<mc::CandidateYield>(*problem_, ms.x,
                                                     ms.stream_seed);
      mc::SampleResult nominal;
      nominal.pass = ms.nominal_pass;
      nominal.violation = ms.nominal_violation;
      m.tally->restore(ms.tally_samples, ms.tally_passes, ms.tally_batches,
                       ms.screened, nominal, ms.tally_failed,
                       static_cast<mc::FailEvent>(ms.fail_reason));
    }
    population_.push_back(std::move(m));
  }
  rng_.set_state(ck.rng);
  stream_counter_ = ck.stream_counter;
  last_local_search_x_ = ck.last_local_search_x;
  sims_.restore(ck.sims, ck.fails);
  scheduler_->import_blobs(*problem_, ck.blobs);
  result.generations = ck.result_generations;
  result.reached_full_yield = ck.reached_full_yield;
  best_scalar = ck.best_scalar;
  stagnant_ls = ck.stagnant_ls;
  stagnant_stop = ck.stagnant_stop;
  start_gen = ck.generation + 1;
  loop_done = ck.done;
  return true;
}

}  // namespace moheco::core
