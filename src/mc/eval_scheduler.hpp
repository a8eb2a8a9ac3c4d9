// Generation-wide Monte-Carlo evaluation scheduler.
//
// Refining candidates one by one would make every OCBA delta-increment a
// pool-wide barrier over a tiny batch (workers idle while one candidate's
// handful of samples drains), and pinning one evaluator session per worker
// to every candidate for its whole lifetime would keep S x W sized
// netlists and factorizations live at once.  The EvalScheduler avoids
// both, and keeps the evaluation pipeline warm end-to-end:
//
//   - Batching: callers enqueue() all candidates' sample ranges for a round
//     and flush() once.  The whole round becomes one chunked job set drained
//     by the pool with no per-candidate barriers; the chunk size follows
//     from the round's sample count and the worker count.  Nominal screens
//     are jobs too (enqueue_screen), so a generation's screens run as ONE
//     job set.
//   - Session caching: sessions live in per-worker LRU caches keyed by
//     candidate id.  Peak live sessions are bounded by
//     sessions_per_worker x workers no matter how many candidates are in
//     flight, and hot candidates keep their sessions warm across rounds and
//     generations.
//   - Sticky affinity: every candidate gets a preferred worker (assigned
//     greedily by queued load on first sight, re-pointed when a candidate
//     migrates); a flush routes each candidate's chunks to its preferred
//     worker's queue and workers steal only after draining their own, so a
//     hot candidate's session lives on ONE worker instead of being rebuilt
//     on several.  Affinity hit/steal/migration counts are exposed here and
//     added to the sched.* registry counters at each flush.
//   - Warm-start handoff: when a session is evicted, its warm_start_blob()
//     (see src/mc/yield_problem.hpp) is parked in a scheduler-wide LRU blob
//     store keyed by a hash of the design vector; a later cache miss for
//     the same x revives the session through open_warm(), skipping the
//     expensive nominal re-measurement.
//
// Determinism: enqueue() consumes the candidate's sample stream immediately
// (batch index and size are fixed at enqueue time), every sample of a batch
// is evaluated exactly once through Session::evaluate(), and pass counts are
// integers summed in job order -- so yield tallies are bit-identical across
// worker counts, flush boundaries, cache capacities and warm starts on/off,
// and identical to a per-candidate refine() loop with the same round
// structure.  This relies on the YieldProblem session-cache contract (see
// src/mc/yield_problem.hpp): sample results are pure functions of (x, xi).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/results_cache.hpp"
#include "src/linalg/matrix.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/sim_counter.hpp"
#include "src/mc/yield_problem.hpp"

namespace moheco::mc {

struct SchedulerOptions {
  /// Capacity of each worker's session cache (LRU eviction).  Peak live
  /// sessions are bounded by sessions_per_worker * num_workers; a miss on a
  /// full cache evicts the least-recently-used session before opening the
  /// replacement.
  int sessions_per_worker = 8;
  /// Capacity of the warm-start blob store (evicted sessions' serialized
  /// state, keyed by design-vector hash).  0 disables warm starts.
  int warm_start_blobs = 256;
};

class EvalScheduler {
 public:
  explicit EvalScheduler(ThreadPool& pool, SchedulerOptions options = {});

  ThreadPool& pool() const { return *pool_; }
  int num_workers() const { return pool_->num_workers(); }

  /// Queues `count` fresh samples of `tally`'s stream for the next flush().
  /// The batch is drawn immediately (the stream position is consumed at
  /// enqueue time), so results do not depend on flush scheduling.  The
  /// tally must stay alive until the flush.  `phase` is the budget phase
  /// the batch is counted under; kOther defers to the phase passed to
  /// flush().  No-op when count <= 0.
  void enqueue(CandidateYield& tally, long long count, const McOptions& options,
               SimPhase phase = SimPhase::kOther);

  /// Queues an externally drawn sample batch for `tally` (the reference-MC
  /// path draws its own seed-defined streams rather than the candidate's);
  /// rows are evaluated at flush() like any other batch.
  void enqueue_samples(CandidateYield& tally, linalg::MatrixD samples,
                       SimPhase phase = SimPhase::kOther);

  /// Queues the nominal acceptance-sampling screen of `tally` for the next
  /// flush() (no-op when already screened).  Screens ride in the same job
  /// set as any sample batches queued alongside them.
  void enqueue_screen(CandidateYield& tally);

  /// Evaluates every queued job as one pool-wide chunked job set, updates
  /// the tallies, and counts batch samples under their enqueue phase (jobs
  /// enqueued with kOther fall back to `phase`); screens always count under
  /// kScreen.  Scheduler events (cache hits, cold/warm opens, affinity
  /// hits, steals, migrations) incurred by the flush go to this object's
  /// accessors and the sched.* registry counters, not to `sims`: at more
  /// than one worker they depend on timing.  A throwing session open or
  /// evaluation is contained to its own job: the candidate is marked failed
  /// with a FailEvent reason code (and counted in `sims`), its job is
  /// dropped untallied, and every other job tallies bit-identically to a
  /// flush that never contained the failing one.  Only pool-infrastructure
  /// errors still propagate (the whole job set is then dropped and the
  /// scheduler stays usable).
  void flush(SimCounter& sims, SimPhase phase = SimPhase::kOther);

  /// Drops every queued job untallied (their stream positions stay
  /// consumed).  Used when abandoning a job set, e.g. when an optimizer run
  /// throws between an enqueue and its flush.
  void discard_pending();

  /// True when jobs are queued for the next flush().
  bool has_pending() const { return !pending_.empty(); }

  /// Batched nominal screens: enqueue_screen() + flush() for a candidate
  /// set (any other pending jobs run in the same job set).
  void screen(std::span<CandidateYield* const> candidates, SimCounter& sims);

  /// enqueue() + flush() for a single candidate, for callers outside
  /// generation-wide rounds.
  void refine(CandidateYield& tally, long long count, SimCounter& sims,
              const McOptions& options, SimPhase phase = SimPhase::kOther);

  /// Low-level batched mapping through the session caches: calls
  /// fn(session, row) for every row in [0, rows), chunk-scheduled on the
  /// pool with `tally`'s cached sessions (counters update as usual).  For
  /// callers that need richer per-sample output than SampleResult -- the
  /// PSWCD pilot sweep reads full circuit Performance -- while still
  /// getting session caching and chunked claiming.  fn runs on worker
  /// threads and must write results to per-row slots.
  void for_each(CandidateYield& tally, std::size_t rows,
                const std::function<void(YieldProblem::Session&, std::size_t)>&
                    fn);

  // --- warm-start blob persistence (see ROADMAP "persist the blob store"):
  // repeated optimizer/bench runs over recurring sizings skip the nominal
  // re-measurements of the previous run.  export/import/forget serialize
  // against flush() and for_each() on an internal mutex, so a serving
  // daemon may snapshot the blob store from another thread while a flush
  // is in flight (the snapshot waits for the job set to drain).  They must
  // still not race the enqueue() side, which stays single-owner.

  /// Snapshot of the blob store as a ResultsCache-storable map (decimal
  /// design-hash -> blob).  Live cached sessions are parked first, so the
  /// hot candidates of the finished run are included, not just the evicted
  /// ones.
  ResultMap export_blobs();

  /// Seeds the blob store from a previous export_blobs() snapshot,
  /// attributing every blob to `problem`.  Safe against stale or foreign
  /// snapshots: open_warm() implementations validate each blob and fall
  /// back to a cold open.  Entries beyond the store capacity are dropped.
  /// Returns the number of blobs imported.
  std::size_t import_blobs(const YieldProblem& problem, const ResultMap& blobs);

  /// Drops every cached session and parked blob attributed to `problem`.
  /// Callers that destroy a problem while the scheduler lives on (the
  /// serving daemon builds one problem per deck job) MUST call this first:
  /// a later problem allocated at the same address would otherwise adopt
  /// sessions of the destroyed evaluator.  Typically preceded by
  /// export_blobs() to keep the warm state as serialized bytes.
  void forget_problem(const YieldProblem* problem);

  // --- instrumentation (relaxed atomics; exact between flushes) ---
  /// Sessions currently held across all worker caches.
  std::size_t live_sessions() const {
    return live_sessions_.load(std::memory_order_relaxed);
  }
  /// High-water mark of live_sessions().
  std::size_t peak_sessions() const {
    return peak_sessions_.load(std::memory_order_relaxed);
  }
  /// Cache misses (sessions constructed, cold + warm) and hits since
  /// construction.
  long long session_opens() const {
    return cold_opens_.load(std::memory_order_relaxed) +
           warm_opens_.load(std::memory_order_relaxed);
  }
  long long session_hits() const {
    return session_hits_.load(std::memory_order_relaxed);
  }
  /// Sessions revived from a warm-start blob (a subset of session_opens()).
  long long warm_opens() const {
    return warm_opens_.load(std::memory_order_relaxed);
  }
  /// Tasks executed on their candidate's preferred worker / elsewhere.
  long long affinity_hits() const {
    return affinity_hits_.load(std::memory_order_relaxed);
  }
  long long steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Candidates whose preferred worker was reassigned after their whole
  /// job ran elsewhere.
  long long migrations() const {
    return migrations_.load(std::memory_order_relaxed);
  }

 private:
  struct CacheEntry {
    std::uint64_t key = 0;
    std::uint64_t x_hash = 0;
    /// Problem and design the session was opened for: a cache miss on the
    /// candidate id falls back to adopting a session of the same (problem,
    /// x) under a new identity -- re-estimates (reference_yield, PSWCD
    /// analyze) create a fresh CandidateYield per call for the same design.
    const YieldProblem* problem = nullptr;
    std::vector<double> x;
    std::unique_ptr<YieldProblem::Session> session;
    std::uint64_t tick = 0;
  };
  /// One worker's LRU session cache; cache-line aligned so concurrent
  /// lookups on neighbouring workers do not false-share.
  struct alignas(64) WorkerCache {
    std::vector<CacheEntry> entries;
    std::uint64_t tick = 0;
  };
  struct PendingJob {
    CandidateYield* tally = nullptr;
    linalg::MatrixD samples;
    long long count = 0;
    bool screen = false;
    SimPhase phase = SimPhase::kOther;
    int preferred = 0;  ///< filled in by flush()
  };
  struct BlobEntry {
    /// Problem the blob's session belonged to: like the session-adoption
    /// path, a lookup must never hand one problem's blob to another (two
    /// problems can share a topology but differ in evaluation options the
    /// blob's pattern key cannot tell apart).
    const YieldProblem* problem = nullptr;
    std::vector<double> blob;
    std::uint64_t tick = 0;
  };

  YieldProblem::Session* session_for(int worker, CandidateYield& tally);
  /// Saves an evicted session's warm-start blob into the LRU blob store.
  void park_blob(std::uint64_t x_hash, const YieldProblem* problem,
                 const YieldProblem::Session& session);
  /// Preferred worker for `tally`, assigning new candidates to the least
  /// loaded queue (`load` is per-worker queued samples for this flush).
  int preferred_worker(const CandidateYield& tally,
                       std::vector<long long>& load, long long weight);

  ThreadPool* pool_;
  SchedulerOptions options_;
  std::vector<WorkerCache> caches_;
  std::vector<PendingJob> pending_;
  std::unordered_map<std::uint64_t, int> preferred_;

  /// Serializes whole job sets (flush, for_each) against blob-store
  /// maintenance (export/import/forget) from other threads.  Always
  /// acquired before blob_mutex_.
  std::mutex maintenance_mutex_;
  std::mutex blob_mutex_;
  std::unordered_map<std::uint64_t, BlobEntry> blobs_;
  std::uint64_t blob_tick_ = 0;

  std::atomic<std::size_t> live_sessions_{0};
  std::atomic<std::size_t> peak_sessions_{0};
  std::atomic<long long> cold_opens_{0};
  std::atomic<long long> warm_opens_{0};
  std::atomic<long long> session_hits_{0};
  std::atomic<long long> affinity_hits_{0};
  std::atomic<long long> steals_{0};
  std::atomic<long long> migrations_{0};
};

/// FNV-1a hash of a design vector's bytes; the blob-store key.  Collisions
/// are tolerable: open_warm() implementations validate the stored x.
std::uint64_t design_hash(std::span<const double> x);

}  // namespace moheco::mc
