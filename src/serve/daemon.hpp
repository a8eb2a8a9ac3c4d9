// moheco_d: yield optimization as a service.
//
// One daemon process owns ONE ThreadPool + mc::EvalScheduler (via
// serve::JobRunner) and runs submitted deck jobs against it sequentially --
// each job parallelizes across the whole pool, so running jobs one at a
// time is the throughput-optimal schedule while keeping per-job results
// bit-identical to a local moheco_cli run with the same options.
//
// Threading model:
//   - one accept thread per listener (Unix-domain socket and/or TCP on
//     127.0.0.1),
//   - one reader thread per connection (parses request lines, answers
//     control ops inline, enqueues submits),
//   - one dispatcher thread draining the job queue through the JobRunner.
//
// Job lifecycle: queued -> running -> done | failed | cancelled, plus
// admission-time rejection when the bounded queue is full (the client gets
// an explicit "rejected" response instead of unbounded buffering).  Queued
// jobs are drained with per-client round-robin so one flooding client
// cannot starve the rest.  `cancel` flips the job's cooperative flag; the
// optimizer polls it at generation flush boundaries.  Jobs whose
// connection disappears keep running -- their terminal response is dropped
// -- which is what makes moheco_cli --detach cheap.
//
// Caching: results are memoized under result_cache_key() (deck content
// hash + every option that shapes the JSON) and warm-start blob snapshots
// under warm_cache_key() (deck content hash + blob-validity options only),
// both in memory with LRU eviction and, when a cache path is configured,
// persisted through ResultsCache so a restarted daemon still answers
// repeats from cache and warm-starts near misses.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/json.hpp"
#include "src/common/parallel.hpp"
#include "src/common/results_cache.hpp"
#include "src/serve/job_runner.hpp"

namespace moheco::serve {

struct DaemonOptions {
  /// Unix-domain socket path; empty disables the Unix listener.  A stale
  /// file at the path is unlinked before binding.
  std::string socket_path;
  /// TCP port on 127.0.0.1; -1 disables the TCP listener, 0 binds an
  /// ephemeral port (read it back with Daemon::tcp_port()).
  int tcp_port = -1;
  int threads = 0;  ///< shared pool width; <= 0 picks hardware concurrency
  mc::SchedulerOptions scheduler;
  /// Admission bound: submits beyond this many queued (not yet running)
  /// jobs are rejected.
  std::size_t queue_depth = 64;
  std::size_t result_cache_entries = 256;  ///< in-memory result LRU
  std::size_t warm_cache_entries = 64;     ///< in-memory warm-blob LRU
  /// ResultsCache backing path for cross-restart persistence of both
  /// caches; empty keeps them memory-only.
  std::string cache_path;
  /// Wall-clock deadline applied to submitted jobs whose request does not
  /// set options.deadline_ms itself; an explicit per-job value always wins.
  /// 0 means no default deadline.  An expired job is cooperatively
  /// cancelled and answered with state "failed", code "deadline".
  long long default_deadline_ms = 0;
  /// Crash-safe optimizer checkpoints: when non-empty, every optimize job
  /// checkpoints its generation-granular state under
  /// DIR/<deck-hash>_<fingerprint-hash>/ and resumes from it if present --
  /// a daemon killed mid-job replays the interrupted run to the identical
  /// result after restart (bit-identical at any pool width with fail
  /// points disarmed).
  std::string checkpoint_dir;
  /// Chrome trace-event export: when non-empty, span tracing is armed at
  /// start() and the buffered trace is written here when the daemon stops.
  std::string trace_path;
  /// Periodic metrics dump: when non-empty, the obs::Registry snapshot is
  /// written here (atomic rename) every metrics_interval_ms and once more
  /// at shutdown.
  std::string metrics_path;
  long long metrics_interval_ms = 5000;
};

/// Monotonic counters; snapshot with Daemon::stats().
struct DaemonStats {
  long long connections = 0;
  long long bad_requests = 0;
  long long submitted = 0;
  long long rejected = 0;
  long long completed = 0;
  long long failed = 0;
  long long cancelled = 0;
  long long result_hits = 0;    ///< jobs answered from the result cache
  long long result_misses = 0;  ///< jobs that had to run
  long long warm_hit_jobs = 0;  ///< ran, but seeded from the warm-blob cache
  long long warm_blobs_imported = 0;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();  ///< request_stop() + wait()

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the configured listeners and starts the service threads.
  /// Throws moheco::Error when no listener is configured or a bind fails.
  void start();

  /// Initiates shutdown from any thread (also triggered by the "shutdown"
  /// op and by moheco_d's signal handler): stops admitting, cancels every
  /// queued job (their owners get terminal "cancelled" lines), flags the
  /// running job's cancel hook, and closes the listeners.  Client
  /// connections stay open so the in-flight job's terminal line is still
  /// delivered.  Returns without waiting; pair with wait().
  void request_stop();

  /// Joins every service thread -- the dispatcher finishes the in-flight
  /// job and sends its terminal line first, then the connections are shut
  /// down -- and removes the Unix socket file.  Idempotent.
  void wait();

  /// True from start() until request_stop().
  bool running() const;

  /// Actual TCP port (resolves an ephemeral request), -1 when disabled.
  int tcp_port() const { return tcp_port_; }
  const std::string& socket_path() const { return options_.socket_path; }

  DaemonStats stats() const;

 private:
  enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };
  static const char* to_string(JobState state);

  /// One accepted socket.  send() is mutex-serialized because the reader
  /// thread (acks, control responses) and the dispatcher (terminal result
  /// lines) both write; close() poisons the fd first so a send after
  /// disconnect fails instead of hitting a recycled descriptor.
  class Connection {
   public:
    Connection(int fd, std::uint64_t id) : fd_(fd), id_(id) {}
    ~Connection();
    std::uint64_t id() const { return id_; }
    int fd() const { return fd_; }
    bool send(const std::string& line);
    void shutdown_read();  ///< wakes a blocked reader (used at daemon stop)
    void close();

   private:
    std::mutex write_mutex_;
    int fd_;
    std::uint64_t id_;
  };

  struct Job {
    std::uint64_t id = 0;
    std::string tag;
    JobSpec spec;
    JobState state = JobState::kQueued;
    std::atomic<bool> cancel{false};
    /// Set by the deadline watchdog when spec.deadline_ms expired; turns
    /// the cooperative cancel into a "failed"/"deadline" terminal instead
    /// of "cancelled".
    std::atomic<bool> deadline_expired{false};
    /// Owning connection; outlives a disconnect (sends on a closed
    /// connection fail quietly, which is the --detach drop semantics).
    std::shared_ptr<Connection> client;
  };

  struct CachedResult {
    std::string json;
    std::string sized_deck;
    std::uint64_t tick = 0;
  };

  void accept_loop(int listen_fd);
  void serve_connection(std::shared_ptr<Connection> conn);
  void handle_request(const std::shared_ptr<Connection>& conn,
                      const std::string& line);
  void handle_submit(const std::shared_ptr<Connection>& conn,
                     const JsonValue& request);
  void handle_status(const std::shared_ptr<Connection>& conn,
                     const JsonValue& request);
  void handle_cancel(const std::shared_ptr<Connection>& conn,
                     const JsonValue& request);
  void handle_stats(const std::shared_ptr<Connection>& conn);

  void dispatcher_loop();
  std::shared_ptr<Job> pop_next_locked();
  void run_job(const std::shared_ptr<Job>& job);
  void send_terminal(const std::shared_ptr<Job>& job,
                     const std::string& line);

  std::optional<CachedResult> result_lookup(const std::string& key,
                                            bool want_sized_deck);
  void result_store(const std::string& key, const std::string& json,
                    const std::string& sized_deck);
  std::optional<ResultMap> warm_lookup(const std::string& key);
  void warm_store(const std::string& key, const ResultMap& blobs);

  void reap_finished_threads_locked();

  DaemonOptions options_;
  ThreadPool pool_;
  JobRunner runner_;
  std::unique_ptr<ResultsCache> disk_cache_;  ///< null when memory-only

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  bool joined_ = false;

  std::vector<int> listen_fds_;
  int tcp_port_ = -1;
  std::vector<std::thread> accept_threads_;
  std::thread dispatcher_;
  std::chrono::steady_clock::time_point start_time_{};
  /// Periodic --metrics dump thread (runs only when metrics_path is set).
  std::thread metrics_thread_;
  std::mutex metrics_mutex_;
  std::condition_variable metrics_cv_;
  bool metrics_stop_ = false;

  mutable std::mutex mutex_;  ///< guards everything below
  std::condition_variable cv_;
  std::uint64_t next_connection_id_ = 1;
  std::uint64_t next_job_id_ = 1;
  std::unordered_map<std::uint64_t, std::weak_ptr<Connection>> connections_;
  std::unordered_map<std::uint64_t, std::thread> connection_threads_;
  std::vector<std::uint64_t> finished_threads_;
  /// Per-client FIFO queues drained round-robin; client_order_ holds the
  /// clients with queued work, rr_cursor_ the next one to serve.
  std::unordered_map<std::uint64_t, std::deque<std::shared_ptr<Job>>> queues_;
  std::vector<std::uint64_t> client_order_;
  std::size_t rr_cursor_ = 0;
  std::size_t queued_count_ = 0;  ///< jobs currently in state kQueued
  /// All jobs by id, including terminal ones (bounded history for status).
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::shared_ptr<Job> running_job_;
  DaemonStats stats_;

  std::uint64_t cache_tick_ = 0;
  std::unordered_map<std::string, CachedResult> result_cache_;
  std::unordered_map<std::string, std::pair<ResultMap, std::uint64_t>>
      warm_cache_;
  std::mutex cache_mutex_;  ///< caches have their own lock (dispatcher-heavy)
};

}  // namespace moheco::serve
