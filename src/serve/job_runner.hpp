// serve::JobRunner -- the one deck-job execution path shared by moheco_cli
// and the moheco_d daemon.
//
// A job is (deck text, mode, options); running it parses the deck, wraps it
// as a circuits::NetlistYieldProblem and executes one of the moheco_cli
// modes (nominal / estimate / optimize) on a caller-owned ThreadPool +
// mc::EvalScheduler, producing the same JSON result object the CLI has
// always emitted.  Because CLI and daemon call the SAME runner, their
// results for identical (deck, seed, options) are bit-identical by
// construction -- that is the serving contract the tests gate.
//
// The runner also owns the cache-key discipline:
//   - deck_content_hash(): FNV-1a over the deck TEXT, never its path, so
//     the same deck submitted from anywhere hits the same cache rows.
//   - warm_cache_key(): deck hash + the options that affect warm-start
//     blob validity (evaluation options only).  Different seeds/modes of
//     the same deck share warm state -- the "near miss" fast path.
//   - result_cache_key(): deck hash + every option that shapes the result
//     JSON, the daemon's exact-repeat fast path.
//
// Warm-start handoff across jobs: run() imports the caller's blob
// snapshot before evaluating and exports the scheduler's blob store
// afterwards, then forgets the (job-local) problem on the scheduler so a
// later problem cannot alias its sessions.  The scheduler outlives every
// job; the blobs travel as serialized bytes through the caller's cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "src/circuits/evaluator.hpp"
#include "src/common/parallel.hpp"
#include "src/common/results_cache.hpp"
#include "src/core/moheco.hpp"
#include "src/mc/eval_scheduler.hpp"

namespace moheco::serve {

enum class JobMode { kNominal, kEstimate, kOptimize };

/// "nominal" / "estimate" / "optimize"; parse returns false on unknown.
const char* to_string(JobMode mode);
bool parse_job_mode(const std::string& text, JobMode* out);

struct JobSpec {
  /// Reporting name only (the JSON "deck" field); never part of any cache
  /// key -- identical deck text from different paths must collide.
  std::string deck_name;
  std::string deck_text;
  JobMode mode = JobMode::kOptimize;
  long long estimate_samples = 2000;
  core::MohecoOptions moheco;  ///< threads is ignored (the pool is shared)
  circuits::EvalOptions eval;
  /// Also render the sized deck at the reported design (JobResult::sized_deck).
  bool want_sized_deck = false;
  /// Wall-clock budget for the job, enforced by the daemon's deadline
  /// watchdog (cooperative cancel on expiry -> terminal "failed" with code
  /// "deadline").  0 means no deadline.  Deliberately NOT part of any cache
  /// fingerprint: a job's result does not depend on how long it was allowed
  /// to take, so a deadline-free resubmit can hit the cached result.
  long long deadline_ms = 0;
};

struct JobResult {
  bool ok = false;
  /// Machine-readable failure class: "bad_deck" (parse/validation),
  /// "cancelled", or "internal".  Empty on success.
  std::string error_code;
  std::string error;
  /// The moheco_cli result JSON object (one line, no trailing newline).
  std::string json;
  std::string sized_deck;  ///< filled when want_sized_deck and ok
  std::size_t warm_blobs_imported = 0;
  /// Post-run snapshot of the scheduler's warm-start blob store for this
  /// job's problem; the caller persists it under warm_cache_key().
  ResultMap warm_blobs;
};

/// Hex FNV-1a of the deck text -- the identity of a workload.
std::string deck_content_hash(const std::string& deck_text);

/// Canonical description of the options that affect warm-start blob
/// validity (evaluation options; NOT seed, mode, or sample counts).
std::string warm_fingerprint(const JobSpec& spec);
/// Canonical description of everything that shapes the result JSON.
/// `workers` is the effective pool width; it joins the key only while fail
/// points are armed (see the definition).
std::string result_fingerprint(const JobSpec& spec, int workers);

/// ResultsCache keys built from the fingerprints above.
std::string warm_cache_key(const JobSpec& spec);
std::string result_cache_key(const JobSpec& spec, int workers);

class JobRunner {
 public:
  /// Runs every job on `pool` through one shared scheduler.  The runner
  /// (and thus the pool) must outlive all run() calls; run() itself is NOT
  /// thread-safe -- callers serialize jobs (the daemon's dispatcher runs
  /// them one at a time, each using the whole pool).
  explicit JobRunner(ThreadPool& pool, mc::SchedulerOptions options = {});

  /// Executes one job start to finish.  `warm_blobs`, when non-null, seeds
  /// the scheduler's blob store first (a previous run's JobResult::
  /// warm_blobs for the same warm_cache_key()).  `cancel`, when non-null,
  /// is polled at flush boundaries; a cancelled job returns ok=false with
  /// error_code "cancelled".  Never throws: every failure is reported
  /// through JobResult.
  JobResult run(const JobSpec& spec, const ResultMap* warm_blobs = nullptr,
                const std::atomic<bool>* cancel = nullptr);

  ThreadPool& pool() { return *pool_; }
  mc::EvalScheduler& scheduler() { return scheduler_; }

 private:
  ThreadPool* pool_;
  mc::EvalScheduler scheduler_;
};

}  // namespace moheco::serve
