// Generation-wide EvalScheduler: scheduling determinism, equivalence with
// the per-candidate refinement path, session-cache bounds, sticky affinity,
// warm-start blob round-trips, pipelined generation overlap, and the
// upgraded ThreadPool entry points.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/circuits/circuit_yield.hpp"
#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/core/moheco.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/mc/ocba.hpp"
#include "src/mc/synthetic.hpp"
#include "src/obs/metrics.hpp"
#include "src/stats/rng.hpp"

namespace moheco::mc {
namespace {

// --- ThreadPool upgrades --------------------------------------------------

TEST(Parallel, ChunkedClaimingRunsEveryIndexOnce) {
  ThreadPool pool(4);
  for (std::size_t grain : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                            std::size_t{5000}}) {
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(
        1000, [&](int, std::size_t i) { ++hits[i]; }, grain);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, RunTasksRunsEveryTaskOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  std::vector<std::function<void(int)>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i, &pool](int worker) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, pool.num_workers());
      ++hits[i];
    });
  }
  pool.run_tasks(tasks);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  pool.run_tasks({});  // empty set is a no-op
}

TEST(Parallel, RunTasksPropagatesExceptions) {
  ThreadPool pool(2);
  std::vector<std::function<void(int)>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([i](int) {
      if (i == 3) throw InvalidArgument("boom");
    });
  }
  EXPECT_THROW(pool.run_tasks(tasks), InvalidArgument);
}

TEST(Parallel, ShardedRunsEveryItemOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  // Unbalanced queues (including an empty one): stealing must still cover
  // every item exactly once.
  std::vector<std::vector<std::size_t>> queues(4);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (i < 400) {
      queues[0].push_back(i);  // one overloaded shard
    } else {
      queues[2].push_back(i);
    }
  }
  pool.parallel_for_sharded(queues, [&](int worker, std::size_t i) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, pool.num_workers());
    ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ShardedHandlesMoreQueuesThanWorkersAndEmptySets) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(60);
  std::vector<std::vector<std::size_t>> queues(7);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    queues[i % queues.size()].push_back(i);
  }
  pool.parallel_for_sharded(queues, [&](int, std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Degenerate inputs are no-ops.
  pool.parallel_for_sharded({}, [&](int, std::size_t) { FAIL(); });
  std::vector<std::vector<std::size_t>> empty(3);
  pool.parallel_for_sharded(empty, [&](int, std::size_t) { FAIL(); });
}

TEST(Parallel, ShardedPropagatesExceptions) {
  ThreadPool pool(2);
  std::vector<std::vector<std::size_t>> queues(2);
  for (std::size_t i = 0; i < 20; ++i) queues[i % 2].push_back(i);
  EXPECT_THROW(pool.parallel_for_sharded(queues,
                                         [&](int, std::size_t i) {
                                           if (i == 7) {
                                             throw InvalidArgument("boom");
                                           }
                                         }),
               InvalidArgument);
  // The pool survives for later dispatches.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](int, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

// --- Session-cache instrumentation ---------------------------------------

/// Counts live and total sessions so tests can observe the cache behaviour.
class CountingProblem final : public YieldProblem {
 public:
  explicit CountingProblem(std::size_t noise_dim = 2)
      : noise_dim_(noise_dim) {}

  std::size_t num_design_vars() const override { return 1; }
  double lower_bound(std::size_t) const override { return -1.0; }
  double upper_bound(std::size_t) const override { return 1.0; }
  std::size_t noise_dim() const override { return noise_dim_; }

  class CountingSession final : public Session {
   public:
    explicit CountingSession(const CountingProblem* parent)
        : parent_(parent) {
      const long long live =
          1 + parent_->live_.fetch_add(1, std::memory_order_relaxed);
      long long peak = parent_->peak_.load(std::memory_order_relaxed);
      while (peak < live && !parent_->peak_.compare_exchange_weak(
                                peak, live, std::memory_order_relaxed)) {
      }
    }
    ~CountingSession() override {
      parent_->live_.fetch_sub(1, std::memory_order_relaxed);
    }
    SampleResult evaluate(std::span<const double> xi) override {
      SampleResult r;
      r.pass = xi.empty() || xi[0] >= 0.0;
      return r;
    }

   private:
    const CountingProblem* parent_;
  };

  std::unique_ptr<Session> open(std::span<const double>) const override {
    opens_.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<CountingSession>(this);
  }

  long long live() const { return live_.load(); }
  long long peak() const { return peak_.load(); }
  long long opens() const { return opens_.load(); }

 private:
  std::size_t noise_dim_;
  mutable std::atomic<long long> live_{0};
  mutable std::atomic<long long> peak_{0};
  mutable std::atomic<long long> opens_{0};
};

TEST(EvalScheduler, PeakSessionsBoundedByCacheCapacity) {
  const CountingProblem problem;
  const int kWorkers = 4;
  const int kCapacity = 2;
  const int kCandidates = 16;
  ThreadPool pool(kWorkers);
  SchedulerOptions options;
  options.sessions_per_worker = kCapacity;
  EvalScheduler scheduler(pool, options);
  SimCounter sims;

  std::vector<std::unique_ptr<CandidateYield>> owners;
  for (int i = 0; i < kCandidates; ++i) {
    owners.push_back(
        std::make_unique<CandidateYield>(problem, std::vector<double>{0.0},
                                         static_cast<std::uint64_t>(i)));
  }
  for (int round = 0; round < 3; ++round) {
    for (auto& c : owners) scheduler.enqueue(*c, 20, McOptions{});
    scheduler.flush(sims);
  }
  // Eviction destroys before reopening, so the bound is exact on both the
  // problem's own count and the scheduler's instrumentation.
  EXPECT_LE(problem.peak(), kCapacity * kWorkers);
  EXPECT_LE(scheduler.peak_sessions(),
            static_cast<std::size_t>(kCapacity * kWorkers));
  EXPECT_EQ(scheduler.live_sessions(), static_cast<std::size_t>(problem.live()));
  EXPECT_EQ(scheduler.session_opens(), problem.opens());
  EXPECT_EQ(sims.total(), 3LL * kCandidates * 20);
}

TEST(EvalScheduler, CacheHitsOnRepeatedRefinement) {
  const CountingProblem problem;
  ThreadPool pool(2);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  CandidateYield c(problem, {0.0}, 9);
  for (int round = 0; round < 5; ++round) {
    scheduler.refine(c, 50, sims, McOptions{});
  }
  // At most one session per worker is ever opened for a single candidate.
  EXPECT_LE(problem.opens(), 2);
  EXPECT_GT(scheduler.session_hits(), 0);
}

/// open() fails for design points with x[0] < 0 (a candidate whose nominal
/// point cannot even be solved).
class FlakyOpenProblem final : public YieldProblem {
 public:
  std::size_t num_design_vars() const override { return 1; }
  double lower_bound(std::size_t) const override { return -1.0; }
  double upper_bound(std::size_t) const override { return 1.0; }
  std::size_t noise_dim() const override { return 1; }

  class PassSession final : public Session {
   public:
    SampleResult evaluate(std::span<const double>) override {
      SampleResult r;
      r.pass = true;
      return r;
    }
  };

  std::unique_ptr<Session> open(std::span<const double> x) const override {
    if (x[0] < 0.0) throw InvalidArgument("open failed");
    return std::make_unique<PassSession>();
  }
};

TEST(EvalScheduler, SurvivesThrowingSessionConstruction) {
  const FlakyOpenProblem problem;
  ThreadPool pool(2);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  CandidateYield bad(problem, {-0.5}, 1);
  CandidateYield good(problem, {0.5}, 2);
  // Fault containment: the throwing open() quarantines ONLY its candidate
  // (marked failed with the open reason code) instead of poisoning the
  // whole flush with an exception.
  scheduler.refine(bad, 10, sims, McOptions{});
  EXPECT_TRUE(bad.failed());
  EXPECT_EQ(bad.fail_reason(), FailEvent::kQuarantineOpen);
  EXPECT_EQ(bad.samples(), 0);
  EXPECT_EQ(sims.fail_total(FailEvent::kQuarantineOpen), 1);
  // The failed open must not leave a poisoned cache entry behind: the
  // scheduler stays usable and the good candidate evaluates normally.
  scheduler.refine(good, 10, sims, McOptions{});
  EXPECT_EQ(good.samples(), 10);
  EXPECT_EQ(good.passes(), 10);
  EXPECT_EQ(scheduler.live_sessions(), scheduler.peak_sessions());
}

TEST(EvalScheduler, ScreenBatchesAndCountsOnce) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.3);
  ThreadPool pool(4);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  std::vector<std::unique_ptr<CandidateYield>> owners;
  std::vector<CandidateYield*> candidates;
  for (int i = 0; i < 8; ++i) {
    const double r = 0.3 * i;  // some inside the feasible disk, some out
    owners.push_back(std::make_unique<CandidateYield>(
        problem, std::vector<double>{r, 0.0},
        static_cast<std::uint64_t>(i)));
    candidates.push_back(owners.back().get());
  }
  scheduler.screen(candidates, sims);
  EXPECT_EQ(sims.phase_total(SimPhase::kScreen), 8);
  for (const auto& c : owners) EXPECT_TRUE(c->screened());
  // Re-screening is free: everything is cached.
  scheduler.screen(candidates, sims);
  EXPECT_EQ(sims.total(), 8);
  // Screen verdicts match the problem's closed form.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(owners[i]->nominal_feasible(),
              problem.margin(owners[i]->x()) >= 0.0);
  }
}

// --- Scheduling determinism ----------------------------------------------

struct TallySnapshot {
  std::vector<long long> samples;
  std::vector<long long> passes;
  bool operator==(const TallySnapshot&) const = default;
};

TallySnapshot snapshot(
    const std::vector<std::unique_ptr<CandidateYield>>& owners) {
  TallySnapshot s;
  for (const auto& c : owners) {
    s.samples.push_back(c->samples());
    s.passes.push_back(c->passes());
  }
  return s;
}

/// A reading of the sched.* registry counters that EvalScheduler::flush
/// feeds.  The registry is process-wide and never resets, so the difference
/// of two readings is what the flushes in between recorded.
struct SchedCounts {
  long long session_hits = 0;
  long long cold_opens = 0;
  long long warm_opens = 0;
  long long affinity_hits = 0;
  long long steals = 0;
  long long migrations = 0;

  static SchedCounts read() {
    const auto value = [](const char* name) {
      return static_cast<long long>(obs::registry().counter(name).value());
    };
    return {value("sched.session_hits"), value("sched.cold_opens"),
            value("sched.warm_opens"), value("sched.affinity_hits"),
            value("sched.steals"), value("sched.migrations")};
  }

  SchedCounts operator-(const SchedCounts& before) const {
    return {session_hits - before.session_hits,
            cold_opens - before.cold_opens,
            warm_opens - before.warm_opens,
            affinity_hits - before.affinity_hits,
            steals - before.steals,
            migrations - before.migrations};
  }
};

std::vector<std::unique_ptr<CandidateYield>> make_pool(
    const YieldProblem& problem, int count) {
  std::vector<std::unique_ptr<CandidateYield>> owners;
  for (int i = 0; i < count; ++i) {
    const double r = 0.08 * i;
    owners.push_back(std::make_unique<CandidateYield>(
        problem, std::vector<double>{r, 0.0},
        stats::derive_seed(4242, static_cast<std::uint64_t>(i))));
  }
  return owners;
}

TwoStageOptions determinism_options() {
  TwoStageOptions options;
  options.n0 = 15;
  options.sim_avg = 35;
  options.n_max = 120;
  options.stage2_threshold = 0.8;
  return options;
}

/// `count` 5T OTA candidates scaled around a design that meets every spec
/// at the nominal process point; their yields sit mid-range, so the tallies
/// mix passing and failing samples.
std::vector<std::unique_ptr<CandidateYield>> make_ota_pool(
    const YieldProblem& problem, int count) {
  std::vector<std::unique_ptr<CandidateYield>> owners;
  for (int i = 0; i < count; ++i) {
    const double w = 0.7 + 0.06 * i;
    owners.push_back(std::make_unique<CandidateYield>(
        problem,
        std::vector<double>{60e-6 * w, 40e-6 * w, 20e-6, 0.7e-6, 0.85},
        stats::derive_seed(4242, static_cast<std::uint64_t>(i))));
  }
  return owners;
}

TEST(EvalScheduler, TwoStageBitIdenticalAcrossThreadCounts) {
  // A synthetic problem and a circuit problem (the 5T OTA, whose sessions
  // carry Newton warm starts and GBW search seeds): neither's tallies may
  // move with the pool width.
  const QuadraticYieldProblem quadratic(2, 6, 1.0, 0.5);
  const circuits::CircuitYieldProblem ota(
      circuits::make_five_transistor_ota());
  const TwoStageOptions options = determinism_options();
  int hardware = static_cast<int>(std::thread::hardware_concurrency());
  if (hardware < 1) hardware = 1;

  for (const YieldProblem* problem :
       {static_cast<const YieldProblem*>(&quadratic),
        static_cast<const YieldProblem*>(&ota)}) {
    std::vector<TallySnapshot> snapshots;
    std::vector<std::vector<std::size_t>> promotions;
    for (int threads : {1, 2, hardware}) {
      ThreadPool pool(threads);
      EvalScheduler scheduler(pool);
      SimCounter sims;
      auto owners = problem == &quadratic ? make_pool(*problem, 10)
                                          : make_ota_pool(*problem, 10);
      std::vector<CandidateYield*> cands;
      for (auto& c : owners) {
        c->screen_nominal(sims);
        cands.push_back(c.get());
      }
      promotions.push_back(
          two_stage_estimate(cands, options, scheduler, sims));
      snapshots.push_back(snapshot(owners));
    }
    for (std::size_t i = 1; i < snapshots.size(); ++i) {
      EXPECT_EQ(snapshots[i], snapshots[0]) << "thread-count variant " << i;
      EXPECT_EQ(promotions[i], promotions[0]);
    }
  }
}

TEST(EvalScheduler, TwoStageMatchesPerCandidatePath) {
  // The batched scheduler must reproduce the pre-refactor per-candidate
  // flow bit-for-bit: same seeds, same round structure, same tallies.  The
  // reference below replays the old algorithm with one refine() (= one
  // pool barrier) per candidate per round.
  const QuadraticYieldProblem problem(2, 6, 1.0, 0.5);
  const TwoStageOptions options = determinism_options();
  ThreadPool pool(4);

  // --- batched path ---
  auto batched_owners = make_pool(problem, 10);
  std::vector<std::size_t> batched_promoted;
  {
    EvalScheduler scheduler(pool);
    SimCounter sims;
    std::vector<CandidateYield*> cands;
    for (auto& c : batched_owners) {
      c->screen_nominal(sims);
      cands.push_back(c.get());
    }
    batched_promoted = two_stage_estimate(cands, options, scheduler, sims);
  }

  // --- per-candidate reference (the pre-refactor loop) ---
  auto reference_owners = make_pool(problem, 10);
  std::vector<std::size_t> reference_promoted;
  {
    SimCounter sims;
    std::vector<CandidateYield*> cands;
    for (auto& c : reference_owners) {
      c->screen_nominal(sims);
      cands.push_back(c.get());
    }
    const std::size_t s = cands.size();
    long long initial_total = 0;
    long long num_new = 0;
    for (const CandidateYield* c : cands) {
      initial_total += c->samples();
      if (c->samples() < options.n0) ++num_new;
    }
    for (CandidateYield* c : cands) {
      if (c->samples() < options.n0) {
        c->refine(options.n0 - c->samples(), pool, sims, options.mc);
      }
    }
    const long long total_budget =
        initial_total + static_cast<long long>(options.sim_avg) * num_new;
    const long long delta = std::max<long long>(
        static_cast<long long>(s), total_budget / 10);
    while (true) {
      long long used = 0;
      for (const CandidateYield* c : cands) used += c->samples();
      if (used >= total_budget) break;
      const long long round_total = std::min(total_budget, used + delta);
      std::vector<double> means(s), variances(s);
      for (std::size_t i = 0; i < s; ++i) {
        means[i] = cands[i]->mean();
        variances[i] = cands[i]->smoothed_variance();
      }
      const auto target = ocba_allocation(means, variances, round_total);
      long long allowance = round_total - used;
      long long added = 0;
      for (std::size_t i = 0; i < s && allowance > 0; ++i) {
        long long extra = target[i] - cands[i]->samples();
        extra = std::min(extra, static_cast<long long>(options.n_max) -
                                    cands[i]->samples());
        extra = std::min(extra, allowance);
        if (extra > 0) {
          cands[i]->refine(extra, pool, sims, options.mc);
          added += extra;
          allowance -= extra;
        }
      }
      if (added == 0) break;
    }
    for (std::size_t i = 0; i < s; ++i) {
      if (cands[i]->mean() > options.stage2_threshold &&
          cands[i]->samples() < options.n_max) {
        cands[i]->refine(options.n_max - cands[i]->samples(), pool, sims,
                         options.mc);
        reference_promoted.push_back(i);
      } else if (cands[i]->samples() >= options.n_max) {
        reference_promoted.push_back(i);
      }
    }
  }

  EXPECT_EQ(snapshot(batched_owners), snapshot(reference_owners));
  EXPECT_EQ(batched_promoted, reference_promoted);
}

TEST(EvalScheduler, ChunkSizeDoesNotAffectTallies) {
  const QuadraticYieldProblem problem(2, 6, 1.0, 0.5);
  ThreadPool pool(4);
  TallySnapshot reference;
  for (std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{1000}}) {
    SchedulerOptions options;
    options.chunk = chunk;
    EvalScheduler scheduler(pool, options);
    SimCounter sims;
    auto owners = make_pool(problem, 6);
    for (auto& c : owners) scheduler.enqueue(*c, 101, McOptions{});
    scheduler.flush(sims);
    const TallySnapshot s = snapshot(owners);
    if (reference.samples.empty()) {
      reference = s;
    } else {
      EXPECT_EQ(s, reference) << "chunk " << chunk;
    }
  }
}

// --- Sticky affinity ------------------------------------------------------

inline void keep(double& value) { asm volatile("" : "+m"(value)); }

/// CountingProblem with tunable open/evaluate cost, so scheduling tests see
/// realistic (non-degenerate) timing.
class SpinCountProblem final : public YieldProblem {
 public:
  SpinCountProblem(int open_spin, int eval_spin)
      : open_spin_(open_spin), eval_spin_(eval_spin) {}

  std::size_t num_design_vars() const override { return 1; }
  double lower_bound(std::size_t) const override { return -2.0; }
  double upper_bound(std::size_t) const override { return 2.0; }
  std::size_t noise_dim() const override { return 2; }

  class SpinSession final : public Session {
   public:
    SpinSession(double margin, int spin) : margin_(margin), spin_(spin) {}
    SampleResult evaluate(std::span<const double> xi) override {
      double acc = margin_;
      for (int k = 0; k < spin_; ++k) acc += acc * 1e-12 + 1e-9;
      keep(acc);
      SampleResult r;
      r.pass = xi.empty() ||
               margin_ + 0.5 * (xi[0] + xi[1]) >= 0.0;
      return r;
    }

   private:
    double margin_;
    int spin_;
  };

  std::unique_ptr<Session> open(std::span<const double> x) const override {
    opens_.fetch_add(1, std::memory_order_relaxed);
    double acc = x[0];
    for (int k = 0; k < open_spin_; ++k) acc += acc * 1e-12 + 1e-9;
    keep(acc);
    return std::make_unique<SpinSession>(1.0 - x[0] * x[0], eval_spin_);
  }

  long long opens() const { return opens_.load(); }

 private:
  int open_spin_;
  int eval_spin_;
  mutable std::atomic<long long> opens_{0};
};

TEST(EvalScheduler, StickyAffinityCutsSessionChurnAndKeepsTallies) {
  const int kWorkers = 4;
  const int kCandidates = 16;
  const int kRounds = 10;
  const int kPerRound = 8;
  auto run = [&](bool sticky) {
    SpinCountProblem problem(/*open_spin=*/20000, /*eval_spin=*/300);
    ThreadPool pool(kWorkers);
    SchedulerOptions options;
    options.sessions_per_worker = 4;  // = candidates per worker when sticky
    options.sticky = sticky;
    options.warm_start_blobs = 0;
    EvalScheduler scheduler(pool, options);
    SimCounter sims;
    std::vector<std::unique_ptr<CandidateYield>> owners;
    for (int i = 0; i < kCandidates; ++i) {
      owners.push_back(std::make_unique<CandidateYield>(
          problem, std::vector<double>{0.1 * i - 0.8},
          stats::derive_seed(31, static_cast<std::uint64_t>(i))));
    }
    const SchedCounts before = SchedCounts::read();
    for (int round = 0; round < kRounds; ++round) {
      for (auto& c : owners) scheduler.enqueue(*c, kPerRound, McOptions{});
      scheduler.flush(sims);
    }
    struct Out {
      long long opens;
      long long session_hits;
      long long affinity_hits;
      long long steals;
      long long migrations;
      TallySnapshot tallies;
      SchedCounts sched;
    };
    return Out{problem.opens(), scheduler.session_hits(),
               scheduler.affinity_hits(), scheduler.steals(),
               scheduler.migrations(), snapshot(owners),
               SchedCounts::read() - before};
  };

  const auto sticky = run(true);
  const auto contiguous = run(false);

  // Tallies never depend on the claiming policy.
  EXPECT_EQ(sticky.tallies, contiguous.tallies);
  // Every chunk was either an affinity hit or a steal, and the sched.*
  // registry counters saw the same events the scheduler counted.
  EXPECT_GT(sticky.affinity_hits, 0);
  EXPECT_EQ(sticky.session_hits, sticky.sched.session_hits);
  EXPECT_EQ(sticky.affinity_hits, sticky.sched.affinity_hits);
  EXPECT_EQ(sticky.steals, sticky.sched.steals);
  EXPECT_EQ(sticky.migrations, sticky.sched.migrations);
  EXPECT_EQ(sticky.opens,
            sticky.sched.cold_opens + sticky.sched.warm_opens);
  // Sticky claiming keeps each candidate's session on (essentially) one
  // worker: with candidates/worker == cache capacity it stops the LRU
  // thrash that contiguous claiming causes.  On a loaded or single-core
  // host the OS serializes the workers and stealing makes both modes
  // thrash alike, so the assertion only forbids sticky claiming from being
  // systematically WORSE; bench_micro_warmpath gates the actual reduction.
  EXPECT_LE(sticky.opens, contiguous.opens + kCandidates);
}

// --- Warm-start blob round-trips ------------------------------------------

/// Warm-start-capable problem: open() is the "expensive" path, open_warm()
/// validates {1.0, x, margin} blobs (rejecting foreign designs) and counts
/// revivals.  Results are pure functions of (x, xi) either way.
class BlobProblem final : public YieldProblem {
 public:
  std::size_t num_design_vars() const override { return 1; }
  double lower_bound(std::size_t) const override { return -2.0; }
  double upper_bound(std::size_t) const override { return 2.0; }
  std::size_t noise_dim() const override { return 2; }

  class BlobSession final : public Session {
   public:
    BlobSession(double x, double margin) : x_(x), margin_(margin) {}
    SampleResult evaluate(std::span<const double> xi) override {
      SampleResult r;
      r.pass = xi.empty() || margin_ + 0.5 * (xi[0] + xi[1]) >= 0.0;
      return r;
    }
    std::vector<double> warm_start_blob() const override {
      return {1.0, x_, margin_};
    }

   private:
    double x_;
    double margin_;
  };

  std::unique_ptr<Session> open(std::span<const double> x) const override {
    cold_.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<BlobSession>(x[0], 1.0 - x[0] * x[0]);
  }

  std::unique_ptr<Session> open_warm(
      std::span<const double> x,
      std::span<const double> blob) const override {
    if (blob.size() == 3 && blob[0] == 1.0 && blob[1] == x[0]) {
      warm_.fetch_add(1, std::memory_order_relaxed);
      return std::make_unique<BlobSession>(x[0], blob[2]);
    }
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return open(x);
  }

  long long cold() const { return cold_.load(); }
  long long warm() const { return warm_.load(); }
  long long rejected() const { return rejected_.load(); }

 private:
  mutable std::atomic<long long> cold_{0};
  mutable std::atomic<long long> warm_{0};
  mutable std::atomic<long long> rejected_{0};
};

TEST(EvalScheduler, EvictedSessionsReviveFromBlobStore) {
  // Single worker + capacity 1: candidates A and B alternate and every
  // round evicts the other's session, so the open sequence is exactly
  // deterministic: 2 cold opens in round 0, warm revivals ever after.
  auto run_rounds = [](const BlobProblem& problem, int capacity, int blobs) {
    ThreadPool pool(1);
    SchedulerOptions options;
    options.sessions_per_worker = capacity;
    options.warm_start_blobs = blobs;
    EvalScheduler scheduler(pool, options);
    SimCounter sims;
    std::vector<std::unique_ptr<CandidateYield>> owners;
    owners.push_back(std::make_unique<CandidateYield>(
        problem, std::vector<double>{0.3}, 11));
    owners.push_back(std::make_unique<CandidateYield>(
        problem, std::vector<double>{-0.4}, 12));
    const SchedCounts before = SchedCounts::read();
    for (int round = 0; round < 3; ++round) {
      for (auto& c : owners) {
        scheduler.refine(*c, 50, sims, McOptions{});
      }
    }
    struct Out {
      TallySnapshot tallies;
      long long warm_opens;
      SchedCounts sched;
    };
    return Out{snapshot(owners), scheduler.warm_opens(),
               SchedCounts::read() - before};
  };

  BlobProblem evicting;
  const auto revived = run_rounds(evicting, /*capacity=*/1, /*blobs=*/8);
  // Round 0 builds both sessions cold; the remaining 2 * 2 misses revive
  // from the blob store.
  EXPECT_EQ(evicting.cold(), 2);
  EXPECT_EQ(evicting.warm(), 4);
  EXPECT_EQ(evicting.rejected(), 0);
  EXPECT_EQ(revived.warm_opens, 4);
  EXPECT_EQ(revived.sched.cold_opens, 2);
  EXPECT_EQ(revived.sched.warm_opens, 4);

  // evict + revive == never evicted: identical tallies with a cache large
  // enough to never evict...
  BlobProblem roomy;
  const auto pinned = run_rounds(roomy, /*capacity=*/2, /*blobs=*/8);
  EXPECT_EQ(roomy.warm(), 0);
  EXPECT_EQ(pinned.tallies, revived.tallies);

  // ...and with warm starts disabled entirely.
  BlobProblem cold_only;
  const auto cold = run_rounds(cold_only, /*capacity=*/1, /*blobs=*/0);
  EXPECT_EQ(cold_only.warm(), 0);
  EXPECT_EQ(cold_only.cold(), 6);
  EXPECT_EQ(cold.tallies, revived.tallies);
}

TEST(EvalScheduler, ForeignBlobsAreRejected) {
  // A blob-store hash collision hands candidate B a blob serialized for A;
  // open_warm must fall back to a cold open rather than trust it.
  BlobProblem problem;
  const std::vector<double> xa = {0.3};
  const std::vector<double> xb = {-0.7};
  const std::vector<double> blob_a =
      problem.open(xa)->warm_start_blob();
  auto session = problem.open_warm(xb, blob_a);
  EXPECT_EQ(problem.rejected(), 1);
  // The fallback session behaves exactly like a cold one for B.
  const double xi_fail[] = {-1.2, -1.4};
  EXPECT_EQ(session->evaluate({}).pass, problem.open(xb)->evaluate({}).pass);
  EXPECT_EQ(session->evaluate(xi_fail).pass,
            problem.open(xb)->evaluate(xi_fail).pass);
}

TEST(EvalScheduler, ExportBlobsFromAnotherThreadDuringFlush) {
  // The serving daemon persists warm state by snapshotting the blob store
  // from its dispatcher thread while pool workers may still be draining a
  // job set.  export_blobs() serializes against flush() on the maintenance
  // mutex, so hammering it concurrently must neither crash (the sanitize
  // CI job watches this test) nor perturb the tallies, and every snapshot
  // it returns must be internally consistent -- no torn blobs.
  auto run = [](bool concurrent_export) {
    BlobProblem problem;
    ThreadPool pool(4);
    SchedulerOptions options;
    options.sessions_per_worker = 1;  // constant evictions -> blob churn
    options.warm_start_blobs = 32;
    EvalScheduler scheduler(pool, options);
    SimCounter sims;
    std::vector<std::unique_ptr<CandidateYield>> owners;
    for (int i = 0; i < 8; ++i) {
      owners.push_back(std::make_unique<CandidateYield>(
          problem, std::vector<double>{0.2 * i - 0.7},
          stats::derive_seed(77, static_cast<std::uint64_t>(i))));
    }
    std::atomic<bool> done{false};
    std::atomic<long long> snapshots{0};
    std::thread exporter;
    if (concurrent_export) {
      exporter = std::thread([&] {
        while (!done.load(std::memory_order_relaxed)) {
          const ResultMap snap = scheduler.export_blobs();
          for (const auto& [key, blob] : snap) {
            EXPECT_EQ(blob.size(), 3u) << "torn blob under key " << key;
            if (blob.size() == 3) EXPECT_EQ(blob[0], 1.0);
          }
          snapshots.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (int round = 0; round < 20; ++round) {
      for (auto& c : owners) scheduler.enqueue(*c, 40, McOptions{});
      scheduler.flush(sims);
    }
    done.store(true);
    if (exporter.joinable()) exporter.join();
    if (concurrent_export) EXPECT_GT(snapshots.load(), 0);
    return snapshot(owners);
  };

  const auto quiet = run(false);
  const auto hammered = run(true);
  EXPECT_EQ(quiet, hammered);
}

TEST(EvalScheduler, CorruptedBlobImportFallsBackCold) {
  // A restarted daemon may hand import_blobs() a snapshot that was
  // truncated on disk or written by a different build.  Unparseable
  // entries are skipped at import; parseable-but-bogus blobs must be
  // rejected by open_warm() and fall back to cold opens, with tallies
  // identical to a never-warmed run.
  SchedulerOptions options;
  options.sessions_per_worker = 1;
  options.warm_start_blobs = 8;

  BlobProblem donor;
  ResultMap snap;
  {
    ThreadPool pool(1);
    EvalScheduler scheduler(pool, options);
    SimCounter sims;
    CandidateYield a(donor, {0.3}, 11);
    CandidateYield b(donor, {-0.4}, 12);
    scheduler.refine(a, 50, sims, McOptions{});
    scheduler.refine(b, 50, sims, McOptions{});
    snap = scheduler.export_blobs();
  }
  ASSERT_EQ(snap.size(), 2u);
  // Corrupt it: truncate one blob, flip the other's magic, and add the
  // kinds of garbage a half-written ResultsCache file could yield.
  auto it = snap.begin();
  it->second = {1.0};        // truncated: wrong blob size
  (++it)->second[0] = 2.0;   // wrong magic for this problem
  snap["not-a-design-hash"] = {1.0, 0.0, 0.0};  // foreign key: skipped
  snap["123456"] = {};                          // empty blob: skipped

  BlobProblem fresh;
  ThreadPool pool(1);
  EvalScheduler scheduler(pool, options);
  // Both corrupt-but-parseable blobs import; the junk rows do not.
  EXPECT_EQ(scheduler.import_blobs(fresh, snap), 2u);
  SimCounter sims;
  CandidateYield a(fresh, {0.3}, 11);
  CandidateYield b(fresh, {-0.4}, 12);
  scheduler.refine(a, 50, sims, McOptions{});
  scheduler.refine(b, 50, sims, McOptions{});
  // open_warm() saw both corrupt blobs, trusted neither, and opened cold.
  EXPECT_EQ(fresh.warm(), 0);
  EXPECT_EQ(fresh.rejected(), 2);
  EXPECT_EQ(fresh.cold(), 2);

  // Cold reference run: identical tallies.
  BlobProblem reference;
  ThreadPool ref_pool(1);
  EvalScheduler ref_scheduler(ref_pool, options);
  SimCounter ref_sims;
  CandidateYield ra(reference, {0.3}, 11);
  CandidateYield rb(reference, {-0.4}, 12);
  ref_scheduler.refine(ra, 50, ref_sims, McOptions{});
  ref_scheduler.refine(rb, 50, ref_sims, McOptions{});
  EXPECT_EQ(a.samples(), ra.samples());
  EXPECT_EQ(a.passes(), ra.passes());
  EXPECT_EQ(b.samples(), rb.samples());
  EXPECT_EQ(b.passes(), rb.passes());
}

// --- Merged job sets, retention, reference yield --------------------------

TEST(EvalScheduler, MergedFlushRunsScreensAndBatchesTogether) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.5);
  ThreadPool pool(2);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  CandidateYield a(problem, {0.1, 0.0}, 21);
  CandidateYield b(problem, {0.2, 0.1}, 22);
  scheduler.enqueue(a, 40, McOptions{}, SimPhase::kStage2);
  scheduler.enqueue_screen(b);
  scheduler.flush(sims);
  EXPECT_EQ(sims.phase_total(SimPhase::kStage2), 40);
  EXPECT_EQ(sims.phase_total(SimPhase::kScreen), 1);
  EXPECT_EQ(a.samples(), 40);
  EXPECT_TRUE(b.screened());
  EXPECT_TRUE(b.nominal_feasible());
}

TEST(EvalScheduler, RetainKeepsDroppedCandidatesAliveUntilFlush) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.5);
  ThreadPool pool(2);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  auto c = std::make_shared<CandidateYield>(
      problem, std::vector<double>{0.1, 0.2}, 33);
  scheduler.enqueue(*c, 30, McOptions{}, SimPhase::kStage2);
  scheduler.retain(c);
  c.reset();  // the scheduler's keep-alive is now the only owner
  scheduler.flush(sims);  // ASan would catch a dangling tally here
  EXPECT_EQ(sims.phase_total(SimPhase::kStage2), 30);
}

TEST(EvalScheduler, DiscardPendingDropsJobsUntallied) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.5);
  ThreadPool pool(2);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  CandidateYield c(problem, {0.1, 0.0}, 44);
  scheduler.enqueue(c, 25, McOptions{});
  scheduler.discard_pending();
  scheduler.flush(sims);
  EXPECT_EQ(c.samples(), 0);
  EXPECT_EQ(sims.total(), 0);
  // The stream position was consumed: the next batch is batch 2, but the
  // scheduler itself stays fully usable.
  scheduler.refine(c, 25, sims, McOptions{});
  EXPECT_EQ(c.samples(), 25);
}

TEST(ReferenceYield, SchedulerOverloadMatchesPoolOverload) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.5);
  const std::vector<double> x = {0.5, 0.2};
  ThreadPool pool(4);
  const double via_pool = reference_yield(problem, x, 2000, 123, pool);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  const double via_scheduler = reference_yield(
      problem, x, 2000, 123, scheduler, stats::SamplingMethod::kPMC, &sims);
  EXPECT_EQ(via_pool, via_scheduler);
  EXPECT_EQ(sims.phase_total(SimPhase::kOther), 2000);
  EXPECT_NEAR(via_scheduler, problem.true_yield(x), 0.05);
  // Identical request on the same scheduler: same estimate, and each
  // worker's cache adopts its session from the first call for the new
  // candidate identity -- so across any number of same-design re-estimates
  // no worker ever opens a second session.
  EXPECT_EQ(reference_yield(problem, x, 2000, 123, scheduler), via_scheduler);
  EXPECT_EQ(reference_yield(problem, x, 2000, 123, scheduler), via_scheduler);
  EXPECT_LE(scheduler.session_opens(),
            static_cast<long long>(pool.num_workers()));
  EXPECT_GT(scheduler.session_hits(), 0);
}

// --- Pipelined generation overlap ------------------------------------------

struct OptimizerFingerprint {
  std::vector<double> best_x;
  long long best_samples = 0;
  long long total_simulations = 0;
  long long stage2 = 0;
  std::vector<long long> trace_sims;
  bool operator==(const OptimizerFingerprint&) const = default;
};

OptimizerFingerprint run_optimizer(bool overlap, int threads,
                                   std::uint64_t seed) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.4);
  core::MohecoOptions options;
  options.population = 10;
  options.estimation.n0 = 10;
  options.estimation.sim_avg = 20;
  options.estimation.n_max = 80;
  options.overlap_generations = overlap;
  options.threads = threads;
  options.seed = seed;
  const core::MohecoResult result =
      core::MohecoOptimizer(problem, options).run_generations(5);
  OptimizerFingerprint fp;
  fp.best_x = result.best.x;
  fp.best_samples = result.best.samples;
  fp.total_simulations = result.total_simulations;
  fp.stage2 = result.sim_breakdown.stage2;
  for (const auto& g : result.trace) {
    fp.trace_sims.push_back(g.sims_cumulative);
  }
  return fp;
}

TEST(MohecoPipeline, OverlapMatchesSerialPathAcrossThreadCounts) {
  // The pipelined loop (stage-2 of generation g merged with the screens of
  // g+1) must reproduce the serial per-generation flush path bit-for-bit:
  // identical best vector, budget split, and per-generation sim trace, for
  // every thread count.
  const OptimizerFingerprint reference = run_optimizer(false, 1, 7);
  EXPECT_GT(reference.stage2, 0);  // the workload must actually promote
  int hardware = static_cast<int>(std::thread::hardware_concurrency());
  if (hardware < 2) hardware = 2;
  for (int threads : {1, 2, hardware}) {
    for (bool overlap : {false, true}) {
      const OptimizerFingerprint fp = run_optimizer(overlap, threads, 7);
      EXPECT_EQ(fp, reference)
          << "overlap=" << overlap << " threads=" << threads;
    }
  }
}

// --- Per-phase accounting -------------------------------------------------

TEST(SimCounter, TwoStagePhaseBreakdown) {
  const QuadraticYieldProblem problem(2, 6, 1.0, 0.5);
  TwoStageOptions options = determinism_options();
  ThreadPool pool(4);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  auto owners = make_pool(problem, 10);
  std::vector<CandidateYield*> cands;
  for (auto& c : owners) {
    c->screen_nominal(sims);
    cands.push_back(c.get());
  }
  two_stage_estimate(cands, options, scheduler, sims);

  const SimBreakdown b = sims.breakdown();
  EXPECT_EQ(b.screen, 10);
  EXPECT_EQ(b.stage1, 10LL * options.n0);
  EXPECT_GT(b.ocba, 0);
  EXPECT_EQ(b.other, 0);
  EXPECT_EQ(b.total(), sims.total());
  long long tallied = 0;
  for (const auto& c : owners) tallied += c->samples();
  EXPECT_EQ(tallied + b.screen, b.total());
}

}  // namespace
}  // namespace moheco::mc
