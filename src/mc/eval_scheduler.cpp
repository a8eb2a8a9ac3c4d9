#include "src/mc/eval_scheduler.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "src/common/error.hpp"
#include "src/common/failpoint.hpp"
#include "src/common/hash.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace moheco::mc {

std::uint64_t design_hash(std::span<const double> x) { return fnv1a64(x); }

EvalScheduler::EvalScheduler(ThreadPool& pool, SchedulerOptions options)
    : pool_(&pool),
      options_(options),
      caches_(static_cast<std::size_t>(pool.num_workers())) {
  require(options_.sessions_per_worker > 0,
          "EvalScheduler: sessions_per_worker must be positive");
  require(options_.warm_start_blobs >= 0,
          "EvalScheduler: warm_start_blobs must be non-negative");
  for (auto& cache : caches_) {
    cache.entries.reserve(
        static_cast<std::size_t>(options_.sessions_per_worker));
  }
}

void EvalScheduler::park_blob(std::uint64_t x_hash,
                              const YieldProblem* problem,
                              const YieldProblem::Session& session) {
  if (options_.warm_start_blobs <= 0) return;
  std::vector<double> blob = session.warm_start_blob();
  if (blob.empty()) return;  // problem does not support warm starts
  std::lock_guard<std::mutex> lock(blob_mutex_);
  ++blob_tick_;
  auto it = blobs_.find(x_hash);
  if (it != blobs_.end()) {
    it->second.problem = problem;
    it->second.blob = std::move(blob);
    it->second.tick = blob_tick_;
    return;
  }
  if (blobs_.size() >= static_cast<std::size_t>(options_.warm_start_blobs)) {
    // Evict the least-recently-touched blob.  Linear scan is fine: parking
    // only happens on session eviction, orders of magnitude rarer than
    // sample evaluations.
    auto victim = blobs_.begin();
    for (auto jt = blobs_.begin(); jt != blobs_.end(); ++jt) {
      if (jt->second.tick < victim->second.tick) victim = jt;
    }
    blobs_.erase(victim);
  }
  blobs_.emplace(x_hash, BlobEntry{problem, std::move(blob), blob_tick_});
}

ResultMap EvalScheduler::export_blobs() {
  // Taken before any cache walk: a concurrent flush() owns the worker
  // caches until its job set drains, so the snapshot waits for it.
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);
  // Park the live sessions first (without evicting them): after a run the
  // hottest candidates sit in the worker caches, not in the blob store.
  for (WorkerCache& cache : caches_) {
    for (CacheEntry& entry : cache.entries) {
      if (entry.session) {
        park_blob(entry.x_hash, entry.problem, *entry.session);
      }
    }
  }
  ResultMap out;
  std::lock_guard<std::mutex> lock(blob_mutex_);
  for (const auto& [hash, entry] : blobs_) {
    out.emplace(std::to_string(hash), entry.blob);
  }
  return out;
}

std::size_t EvalScheduler::import_blobs(const YieldProblem& problem,
                                        const ResultMap& blobs) {
  if (options_.warm_start_blobs <= 0) return 0;
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);
  std::lock_guard<std::mutex> lock(blob_mutex_);
  std::size_t imported = 0;
  for (const auto& [key, blob] : blobs) {
    if (blobs_.size() >= static_cast<std::size_t>(options_.warm_start_blobs)) {
      break;
    }
    if (blob.empty()) continue;
    char* end = nullptr;
    const std::uint64_t hash = std::strtoull(key.c_str(), &end, 10);
    if (end == key.c_str() || *end != '\0') continue;  // foreign key
    if (blobs_.emplace(hash, BlobEntry{&problem, blob, ++blob_tick_}).second) {
      ++imported;
    }
  }
  return imported;
}

ResultMap EvalScheduler::checkpoint_blobs() {
  require(pending_.empty(),
          "EvalScheduler::checkpoint_blobs: flush pending jobs first");
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);
  // Park every live session, then drop the worker caches entirely: a
  // resumed run starts with cold caches, so the checkpointed run must
  // continue from cold caches too for the eviction/affinity decisions to
  // match from here on.
  for (WorkerCache& cache : caches_) {
    for (CacheEntry& entry : cache.entries) {
      if (entry.session) {
        park_blob(entry.x_hash, entry.problem, *entry.session);
        live_sessions_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    cache.entries.clear();
    cache.tick = 0;
  }
  preferred_.clear();
  std::lock_guard<std::mutex> lock(blob_mutex_);
  ResultMap out;
  for (const auto& [hash, entry] : blobs_) {
    out.emplace(std::to_string(hash), entry.blob);
  }
  // Renumber the blob LRU ticks to what import_blobs() on a fresh scheduler
  // assigns when fed this snapshot: 1..N in sorted decimal-key order.
  blob_tick_ = 0;
  for (const auto& [key, blob] : out) {
    const std::uint64_t hash = std::strtoull(key.c_str(), nullptr, 10);
    auto it = blobs_.find(hash);
    if (it != blobs_.end()) it->second.tick = ++blob_tick_;
  }
  return out;
}

void EvalScheduler::forget_problem(const YieldProblem* problem) {
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);
  for (WorkerCache& cache : caches_) {
    for (CacheEntry& entry : cache.entries) {
      if (entry.session && entry.problem == problem) {
        entry.session.reset();
        entry.problem = nullptr;
        entry.x.clear();
        live_sessions_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
  std::lock_guard<std::mutex> lock(blob_mutex_);
  for (auto it = blobs_.begin(); it != blobs_.end();) {
    it = it->second.problem == problem ? blobs_.erase(it) : std::next(it);
  }
}

YieldProblem::Session* EvalScheduler::session_for(int worker,
                                                  CandidateYield& tally) {
  WorkerCache& cache = caches_[static_cast<std::size_t>(worker)];
  ++cache.tick;
  for (CacheEntry& entry : cache.entries) {
    if (entry.session && entry.key == tally.id()) {
      entry.tick = cache.tick;
      session_hits_.fetch_add(1, std::memory_order_relaxed);
      return entry.session.get();
    }
  }
  // Identity miss: adopt a session of the same (problem, design) under the
  // new candidate id.  Sample results are pure functions of (x, xi), so the
  // session serves the new identity verbatim; the exact-x comparison guards
  // against hash collisions.
  const std::uint64_t lookup_hash = design_hash(tally.x());
  for (CacheEntry& entry : cache.entries) {
    if (entry.session && entry.x_hash == lookup_hash &&
        entry.problem == &tally.problem() && entry.x == tally.x()) {
      entry.key = tally.id();
      entry.tick = cache.tick;
      session_hits_.fetch_add(1, std::memory_order_relaxed);
      return entry.session.get();
    }
  }
  CacheEntry* slot = nullptr;
  if (cache.entries.size() <
      static_cast<std::size_t>(options_.sessions_per_worker)) {
    // Never reallocates: the vector is reserved to capacity on construction,
    // so entries stay stable while other lookups hold pointers into them.
    slot = &cache.entries.emplace_back();
  } else {
    // Evict the least-recently-used session before opening the replacement,
    // so the live-session bound of capacity * workers is never exceeded,
    // even transiently.  The evicted session's warm-start state is parked
    // in the blob store so a revival skips the nominal re-measurement.
    slot = &cache.entries.front();
    for (CacheEntry& entry : cache.entries) {
      if (entry.tick < slot->tick) slot = &entry;
    }
    if (slot->session) {
      park_blob(slot->x_hash, slot->problem, *slot->session);
      slot->session.reset();
      live_sessions_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  const std::uint64_t x_hash = lookup_hash;
  std::vector<double> blob;
  if (options_.warm_start_blobs > 0) {
    std::lock_guard<std::mutex> lock(blob_mutex_);
    auto it = blobs_.find(x_hash);
    if (it != blobs_.end() && it->second.problem == &tally.problem()) {
      it->second.tick = ++blob_tick_;
      blob = it->second.blob;  // copy: the entry may be evicted concurrently
    }
  }
  if (!blob.empty() && fail::should_fail(fail::Site::kWarmBlob)) {
    // Simulated blob corruption: truncate the copy so open_warm()'s
    // validation rejects it and the session re-measures cold (the
    // warm_blob_rejected ladder rung).
    blob.resize(blob.size() / 2);
  }
  if (fail::should_fail(fail::Site::kSessionOpen)) {
    throw Error("failpoint: session_open");
  }
  // open()/open_warm() may throw (e.g. a failing nominal solve); the slot is
  // then left empty (null session, skipped by lookups and recycled first by
  // the LRU scan), keeping the cache and the live-session accounting valid.
  if (!blob.empty()) {
    slot->session = tally.problem().open_warm(tally.x(), blob);
    warm_opens_.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot->session = tally.problem().open(tally.x());
    cold_opens_.fetch_add(1, std::memory_order_relaxed);
  }
  slot->key = tally.id();
  slot->x_hash = x_hash;
  slot->problem = &tally.problem();
  slot->x.assign(tally.x().begin(), tally.x().end());
  slot->tick = cache.tick;
  const std::size_t live =
      live_sessions_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::size_t peak = peak_sessions_.load(std::memory_order_relaxed);
  while (peak < live && !peak_sessions_.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return slot->session.get();
}

void EvalScheduler::enqueue(CandidateYield& tally, long long count,
                            const McOptions& options, SimPhase phase) {
  if (count <= 0 || tally.failed()) return;
  PendingJob job;
  job.tally = &tally;
  job.samples = tally.next_batch(count, options);
  job.count = count;
  job.phase = phase;
  pending_.push_back(std::move(job));
}

void EvalScheduler::enqueue_samples(CandidateYield& tally,
                                    linalg::MatrixD samples, SimPhase phase) {
  if (samples.rows() == 0 || tally.failed()) return;
  require(samples.cols() == tally.problem().noise_dim(),
          "EvalScheduler: sample batch dimension mismatch");
  PendingJob job;
  job.tally = &tally;
  job.count = static_cast<long long>(samples.rows());
  job.samples = std::move(samples);
  job.phase = phase;
  pending_.push_back(std::move(job));
}

void EvalScheduler::enqueue_screen(CandidateYield& tally) {
  if (tally.screened() || tally.failed()) return;
  PendingJob job;
  job.tally = &tally;
  job.screen = true;
  job.phase = SimPhase::kScreen;
  pending_.push_back(std::move(job));
}

void EvalScheduler::retain(std::shared_ptr<CandidateYield> tally) {
  if (tally) retained_.push_back(std::move(tally));
}

void EvalScheduler::discard_pending() {
  pending_.clear();
  retained_.clear();
}

int EvalScheduler::preferred_worker(const CandidateYield& tally,
                                    std::vector<long long>& load,
                                    long long weight) {
  // Stale-hint backstop for very long-lived schedulers: hints only affect
  // placement cost, so dropping them is always safe.
  if (preferred_.size() > (1u << 20)) preferred_.clear();
  auto [it, inserted] = preferred_.try_emplace(tally.id(), 0);
  if (inserted) {
    // New candidate: greedy least-loaded assignment (lowest worker id wins
    // ties), so the first flush stays balanced and later flushes stay put.
    int best = 0;
    for (int w = 1; w < static_cast<int>(load.size()); ++w) {
      if (load[static_cast<std::size_t>(w)] <
          load[static_cast<std::size_t>(best)]) {
        best = w;
      }
    }
    it->second = best;
  }
  load[static_cast<std::size_t>(it->second)] += weight;
  return it->second;
}

void EvalScheduler::flush(SimCounter& sims, SimPhase phase) {
  if (pending_.empty()) {
    retained_.clear();
    return;
  }
  obs::Span flush_span("sched.flush",
                       static_cast<std::int64_t>(pending_.size()));
  static obs::Histogram& flush_us =
      obs::registry().histogram("sched.flush_us");
  obs::ScopedTimer flush_timer(flush_us);
  // Blocks blob-store maintenance (export/import/forget from other
  // threads) until this job set drains; the workers walk the caches
  // without further locking, exactly as before.
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);
  long long total = 0;
  for (const PendingJob& job : pending_) {
    if (!job.screen) total += job.count;
  }

  std::size_t chunk = options_.chunk;
  if (chunk == 0) {
    chunk = std::clamp<std::size_t>(
        static_cast<std::size_t>(total) /
            (4 * static_cast<std::size_t>(pool_->num_workers())),
        1, 64);
  }

  // Sticky routing: every job goes to its candidate's preferred worker; new
  // candidates are placed on the least-loaded queue.  The assignment itself
  // never affects tallies, only where sessions get built.
  std::vector<long long> load(static_cast<std::size_t>(pool_->num_workers()),
                              0);
  for (PendingJob& job : pending_) {
    job.preferred = preferred_worker(*job.tally, load,
                                     job.screen ? 1 : job.count);
  }

  // One task per (job, row range); all tasks of a round drain as one pool
  // dispatch.  Tasks of one job are contiguous, so a worker claiming
  // neighbouring tasks stays on the same candidate's session.
  struct Task {
    std::size_t job;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Task> tasks;
  tasks.reserve(pending_.size() +
                static_cast<std::size_t>(total) / std::max<std::size_t>(chunk, 1));
  for (std::size_t j = 0; j < pending_.size(); ++j) {
    if (pending_[j].screen) {
      tasks.push_back({j, 0, 1});
      continue;
    }
    const std::size_t rows = static_cast<std::size_t>(pending_[j].count);
    for (std::size_t begin = 0; begin < rows; begin += chunk) {
      tasks.push_back({j, begin, std::min(rows, begin + chunk)});
    }
  }

  // Per-task pass counts summed sequentially afterwards: integer tallies in
  // a fixed order, so the result is independent of scheduling.  A throwing
  // session or evaluation quarantines ITS job only: the job's remaining
  // tasks are skipped, the candidate is marked failed with a reason code,
  // and every other job tallies exactly as if the failing one had never
  // been enqueued.  job_failure[j] holds 0 (healthy) or 1 + FailEvent.
  std::vector<long long> task_passes(tasks.size(), 0);
  std::vector<int> task_worker(tasks.size(), -1);
  std::vector<SampleResult> screen_results(pending_.size());
  std::vector<std::atomic<int>> job_failure(pending_.size());
  const auto evaluate_task = [&](int worker, std::size_t t) {
    const Task& task = tasks[t];
    PendingJob& job = pending_[task.job];
    if (job_failure[task.job].load(std::memory_order_relaxed) != 0) return;
    YieldProblem::Session* session = nullptr;
    try {
      session = session_for(worker, *job.tally);
    } catch (...) {
      job_failure[task.job].store(
          1 + static_cast<int>(FailEvent::kQuarantineOpen),
          std::memory_order_relaxed);
      return;
    }
    task_worker[t] = worker;
    try {
      if (job.screen) {
        screen_results[task.job] = session->evaluate({});
        return;
      }
      const std::size_t dim = job.tally->problem().noise_dim();
      long long passes = 0;
      for (std::size_t i = task.begin; i < task.end; ++i) {
        if (session->evaluate({job.samples.row(i), dim}).pass) ++passes;
      }
      task_passes[t] = passes;
    } catch (...) {
      job_failure[task.job].store(
          1 + static_cast<int>(job.screen ? FailEvent::kQuarantineScreen
                                          : FailEvent::kQuarantineEval),
          std::memory_order_relaxed);
      // The task's partial result must not count: its job is dropped whole.
      task_worker[t] = -1;
    }
  };

  const long long hits_before = session_hits();
  const long long cold_before = cold_opens_.load(std::memory_order_relaxed);
  const long long warm_before = warm_opens_.load(std::memory_order_relaxed);
  try {
    if (options_.sticky && pool_->num_workers() > 1) {
      std::vector<std::vector<std::size_t>> queues(
          static_cast<std::size_t>(pool_->num_workers()));
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        queues[static_cast<std::size_t>(pending_[tasks[t].job].preferred)]
            .push_back(t);
      }
      pool_->parallel_for_sharded(queues, evaluate_task);
    } else {
      pool_->parallel_for(tasks.size(), evaluate_task, /*grain=*/1);
    }
  } catch (...) {
    // Pool-infrastructure failure (evaluation errors are contained per job
    // above): drop the whole job set untallied, keep the scheduler usable.
    pending_.clear();
    retained_.clear();
    throw;
  }

  // Affinity accounting + migration: if every task of a job ran on one
  // worker that is not the preferred one, re-point the candidate there so
  // the next flush finds the session already warm.  Quarantined jobs are
  // excluded entirely -- their skipped tasks never ran anywhere, so they
  // must not count as hits or steals, and a failed job must not migrate
  // its candidate.
  long long flush_hits = 0, flush_steals = 0, flush_migrations = 0;
  {
    std::size_t t = 0;
    for (std::size_t j = 0; j < pending_.size(); ++j) {
      const bool quarantined =
          job_failure[j].load(std::memory_order_relaxed) != 0;
      int uniform_worker = -2;  // -2: unset, -1: mixed
      for (; t < tasks.size() && tasks[t].job == j; ++t) {
        if (quarantined || task_worker[t] < 0) continue;
        if (task_worker[t] == pending_[j].preferred) {
          ++flush_hits;
        } else {
          ++flush_steals;
        }
        if (uniform_worker == -2) {
          uniform_worker = task_worker[t];
        } else if (uniform_worker != task_worker[t]) {
          uniform_worker = -1;
        }
      }
      if (uniform_worker >= 0 && uniform_worker != pending_[j].preferred) {
        preferred_[pending_[j].tally->id()] = uniform_worker;
        ++flush_migrations;
      }
    }
  }
  affinity_hits_.fetch_add(flush_hits, std::memory_order_relaxed);
  steals_.fetch_add(flush_steals, std::memory_order_relaxed);
  migrations_.fetch_add(flush_migrations, std::memory_order_relaxed);

  // Tally updates in job order: bit-identical no matter how the tasks were
  // scheduled.  Screens count under kScreen via record_nominal; batches
  // count under their enqueue phase (kOther defers to the flush phase).
  long long phase_totals[kNumSimPhases] = {};
  {
    std::size_t t = 0;
    for (std::size_t j = 0; j < pending_.size(); ++j) {
      PendingJob& job = pending_[j];
      const int failure = job_failure[j].load(std::memory_order_relaxed);
      if (failure != 0) {
        // Quarantine: nothing of this job is tallied (a partial tally would
        // bias the yield estimate), but the rows that did complete before
        // the failure still count as spent simulation budget.
        long long done = 0;
        for (; t < tasks.size() && tasks[t].job == j; ++t) {
          if (!job.screen && task_worker[t] >= 0) {
            done += static_cast<long long>(tasks[t].end - tasks[t].begin);
          }
        }
        const FailEvent reason = static_cast<FailEvent>(failure - 1);
        job.tally->mark_failed(reason);
        sims.add_fail(reason);
        if (done > 0) {
          const SimPhase counted =
              job.phase == SimPhase::kOther ? phase : job.phase;
          phase_totals[static_cast<std::size_t>(counted)] += done;
        }
        continue;
      }
      if (job.screen) {
        ++t;
        job.tally->record_nominal(screen_results[j], sims);
        continue;
      }
      long long passes = 0;
      for (; t < tasks.size() && tasks[t].job == j; ++t) {
        passes += task_passes[t];
      }
      job.tally->record(job.count, passes);
      const SimPhase counted =
          job.phase == SimPhase::kOther ? phase : job.phase;
      phase_totals[static_cast<std::size_t>(counted)] += job.count;
    }
  }
  for (std::size_t p = 0; p < kNumSimPhases; ++p) {
    if (phase_totals[p] > 0) {
      sims.add(phase_totals[p], static_cast<SimPhase>(p));
    }
  }
  const long long flush_session_hits = session_hits() - hits_before;
  const long long flush_cold =
      cold_opens_.load(std::memory_order_relaxed) - cold_before;
  const long long flush_warm =
      warm_opens_.load(std::memory_order_relaxed) - warm_before;

  // The flush's scheduler events go to the process registry only: they
  // depend on timing at more than one worker, so they stay out of the
  // run's SimCounter and result (see docs/observability.md).
  {
    static obs::Counter& c_session_hits =
        obs::registry().counter("sched.session_hits");
    static obs::Counter& c_cold = obs::registry().counter("sched.cold_opens");
    static obs::Counter& c_warm = obs::registry().counter("sched.warm_opens");
    static obs::Counter& c_aff =
        obs::registry().counter("sched.affinity_hits");
    static obs::Counter& c_steals = obs::registry().counter("sched.steals");
    static obs::Counter& c_migr = obs::registry().counter("sched.migrations");
    static obs::Counter& c_flushes = obs::registry().counter("sched.flushes");
    c_session_hits.add(static_cast<std::uint64_t>(flush_session_hits));
    c_cold.add(static_cast<std::uint64_t>(flush_cold));
    c_warm.add(static_cast<std::uint64_t>(flush_warm));
    c_aff.add(static_cast<std::uint64_t>(flush_hits));
    c_steals.add(static_cast<std::uint64_t>(flush_steals));
    c_migr.add(static_cast<std::uint64_t>(flush_migrations));
    c_flushes.add(1);
  }
  pending_.clear();
  retained_.clear();
}

void EvalScheduler::screen(std::span<CandidateYield* const> candidates,
                           SimCounter& sims) {
  for (CandidateYield* c : candidates) {
    if (c != nullptr) enqueue_screen(*c);
  }
  flush(sims);
}

void EvalScheduler::refine(CandidateYield& tally, long long count,
                           SimCounter& sims, const McOptions& options,
                           SimPhase phase) {
  enqueue(tally, count, options, SimPhase::kOther);
  flush(sims, phase);
}

void EvalScheduler::for_each(
    CandidateYield& tally, std::size_t rows,
    const std::function<void(YieldProblem::Session&, std::size_t)>& fn) {
  require(pending_.empty(),
          "EvalScheduler::for_each: flush pending jobs first");
  if (rows == 0) return;
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);
  std::size_t chunk = options_.chunk;
  if (chunk == 0) {
    chunk = std::clamp<std::size_t>(
        rows / (4 * static_cast<std::size_t>(pool_->num_workers())), 1, 64);
  }
  const std::size_t num_chunks = (rows + chunk - 1) / chunk;
  pool_->parallel_for(
      num_chunks,
      [&](int worker, std::size_t c) {
        YieldProblem::Session* session = session_for(worker, tally);
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(rows, begin + chunk);
        for (std::size_t i = begin; i < end; ++i) fn(*session, i);
      },
      /*grain=*/1);
}

}  // namespace moheco::mc
