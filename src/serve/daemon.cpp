#include "src/serve/daemon.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/log.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/protocol.hpp"

namespace moheco::serve {

namespace {

int make_unix_listener(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw Error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw Error("socket(AF_UNIX): " + std::string(strerror(errno)));
  // A previous daemon that died without cleanup leaves the file behind;
  // binding over it is the standard recovery.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int err = errno;
    ::close(fd);
    throw Error("bind(" + path + "): " + std::string(strerror(err)));
  }
  if (::listen(fd, 128) < 0) {
    const int err = errno;
    ::close(fd);
    throw Error("listen(" + path + "): " + std::string(strerror(err)));
  }
  return fd;
}

int make_tcp_listener(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Error("socket(AF_INET): " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int err = errno;
    ::close(fd);
    throw Error("bind(127.0.0.1:" + std::to_string(port) +
                "): " + std::string(strerror(err)));
  }
  if (::listen(fd, 128) < 0) {
    const int err = errno;
    ::close(fd);
    throw Error("listen: " + std::string(strerror(err)));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *bound_port = ntohs(bound.sin_port);
  } else {
    *bound_port = port;
  }
  return fd;
}

std::string error_response(const std::string& op, const char* code,
                           const std::string& message, const std::string& tag) {
  JsonObject obj;
  obj.add_bool("ok", false);
  obj.add_string("op", op);
  obj.add_string("code", code);
  obj.add_string("error", message);
  if (!tag.empty()) obj.add_string("tag", tag);
  return obj.str();
}

/// Terminal line for a job that never ran (cancelled while queued): same
/// shape as the dispatcher's failure terminals, so clients correlate it by
/// the "job" field like any other result line.
std::string cancelled_terminal(std::uint64_t job_id, const std::string& message,
                               const std::string& tag) {
  JsonObject obj;
  obj.add_bool("ok", false);
  obj.add_string("op", "result");
  obj.add_uint("job", job_id);
  obj.add_string("state", "cancelled");
  obj.add_string("code", kErrCancelled);
  obj.add_string("error", message);
  if (!tag.empty()) obj.add_string("tag", tag);
  return obj.str();
}

}  // namespace

// --- Connection ---

Daemon::Connection::~Connection() { close(); }

bool Daemon::Connection::send(const std::string& line) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (fd_ < 0) return false;
  return send_line(fd_, line);
}

void Daemon::Connection::shutdown_read() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Daemon::Connection::close() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --- lifecycle ---

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      pool_(options_.threads),
      runner_(pool_, options_.scheduler) {
  if (!options_.cache_path.empty()) {
    disk_cache_ = std::make_unique<ResultsCache>(options_.cache_path);
  }
}

Daemon::~Daemon() {
  request_stop();
  wait();
}

void Daemon::start() {
  if (options_.socket_path.empty() && options_.tcp_port < 0) {
    throw Error("moheco_d: no listener configured (socket path or TCP port)");
  }
  if (!options_.socket_path.empty()) {
    listen_fds_.push_back(make_unix_listener(options_.socket_path));
  }
  if (options_.tcp_port >= 0) {
    listen_fds_.push_back(make_tcp_listener(options_.tcp_port, &tcp_port_));
  }
  started_.store(true, std::memory_order_release);
  start_time_ = std::chrono::steady_clock::now();
  // A daemon always keeps its timing instruments armed: op=stats serves the
  // latency histograms.  Tracing stays opt-in (--trace=FILE).
  obs::set_timing_enabled(true);
  if (!options_.trace_path.empty()) obs::set_trace_enabled(true);
  if (!options_.metrics_path.empty()) {
    metrics_thread_ = std::thread([this] {
      const auto interval = std::chrono::milliseconds(
          options_.metrics_interval_ms > 0 ? options_.metrics_interval_ms
                                           : 5000);
      std::unique_lock<std::mutex> lock(metrics_mutex_);
      while (!metrics_cv_.wait_for(lock, interval,
                                   [this] { return metrics_stop_; })) {
        obs::write_metrics_json(options_.metrics_path);
      }
    });
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
  for (const int fd : listen_fds_) {
    accept_threads_.emplace_back([this, fd] { accept_loop(fd); });
  }
}

void Daemon::request_stop() {
  if (stop_requested_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Every queued job dies now; its owner gets a terminal line so a
    // blocked client unblocks instead of hanging on a silent drop.
    for (auto& [client_id, queue] : queues_) {
      for (const std::shared_ptr<Job>& job : queue) {
        if (job->state != JobState::kQueued) continue;
        job->state = JobState::kCancelled;
        --queued_count_;
        ++stats_.cancelled;
        send_terminal(job, cancelled_terminal(job->id, "daemon shutting down",
                                              job->tag));
      }
    }
    queues_.clear();
    client_order_.clear();
    rr_cursor_ = 0;
    if (running_job_) running_job_->cancel.store(true);
  }
  // Listener fds: shutdown() unblocks accept() so the accept threads exit.
  // Client connections stay OPEN here -- the in-flight job's terminal line
  // still has to go out; wait() tears them down once the dispatcher drains.
  for (const int fd : listen_fds_) ::shutdown(fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_stop_ = true;
  }
  metrics_cv_.notify_all();
  cv_.notify_all();
}

void Daemon::wait() {
  if (!started_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (joined_) return;
    joined_ = true;
  }
  for (std::thread& t : accept_threads_) {
    if (t.joinable()) t.join();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  // Only now -- with the dispatcher drained and every terminal line sent --
  // shut the connections down, unblocking their reader threads.
  {
    std::vector<std::shared_ptr<Connection>> to_wake;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto& [id, weak] : connections_) {
        if (std::shared_ptr<Connection> conn = weak.lock()) {
          to_wake.push_back(std::move(conn));
        }
      }
    }
    for (const std::shared_ptr<Connection>& conn : to_wake) {
      conn->shutdown_read();
    }
  }
  while (true) {
    std::thread victim;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (connection_threads_.empty()) break;
      auto it = connection_threads_.begin();
      victim = std::move(it->second);
      connection_threads_.erase(it);
    }
    if (victim.joinable()) victim.join();
  }
  if (metrics_thread_.joinable()) metrics_thread_.join();
  if (!options_.metrics_path.empty()) {
    obs::write_metrics_json(options_.metrics_path);
  }
  if (!options_.trace_path.empty()) {
    if (obs::write_trace(options_.trace_path)) {
      log_info("moheco_d: wrote trace to ", options_.trace_path);
    }
  }
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
}

bool Daemon::running() const {
  return started_.load(std::memory_order_acquire) &&
         !stop_requested_.load(std::memory_order_acquire);
}

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

const char* Daemon::to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

// --- accept / connection threads ---

void Daemon::accept_loop(int listen_fd) {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stop_requested_.load(std::memory_order_acquire)) break;
      // Transient accept failures (EMFILE, ECONNABORTED) must not kill the
      // listener.
      continue;
    }
    if (stop_requested_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    reap_finished_threads_locked();
    const std::uint64_t id = next_connection_id_++;
    auto conn = std::make_shared<Connection>(fd, id);
    connections_[id] = conn;
    ++stats_.connections;
    connection_threads_.emplace(
        id, std::thread([this, conn] { serve_connection(conn); }));
  }
}

void Daemon::serve_connection(std::shared_ptr<Connection> conn) {
  LineReader reader(conn->fd());
  while (true) {
    std::optional<std::string> line = reader.next();
    if (!line) break;
    if (line->empty()) continue;
    handle_request(conn, *line);
  }
  conn->close();
  std::lock_guard<std::mutex> lock(mutex_);
  connections_.erase(conn->id());
  finished_threads_.push_back(conn->id());
}

void Daemon::reap_finished_threads_locked() {
  for (const std::uint64_t id : finished_threads_) {
    auto it = connection_threads_.find(id);
    if (it == connection_threads_.end()) continue;
    if (it->second.joinable()) it->second.join();
    connection_threads_.erase(it);
  }
  finished_threads_.clear();
}

// --- request handling (reader threads) ---

void Daemon::handle_request(const std::shared_ptr<Connection>& conn,
                            const std::string& line) {
  static obs::Counter& c_requests = obs::registry().counter("serve.requests");
  static obs::Histogram& op_us = obs::registry().histogram("serve.op_us");
  c_requests.add(1);
  obs::ScopedTimer op_timer(op_us);
  const std::optional<JsonValue> parsed = parse_json(line);
  if (!parsed || !parsed->is_object() || !(*parsed)["op"].is_string()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.bad_requests;
    }
    conn->send(error_response(
        "?", kErrBadRequest,
        "every request is one JSON object with a string field 'op'", ""));
    return;
  }
  const JsonValue& request = *parsed;
  const std::string& op = request["op"].as_string();
  if (op == "submit") {
    handle_submit(conn, request);
  } else if (op == "status") {
    handle_status(conn, request);
  } else if (op == "cancel") {
    handle_cancel(conn, request);
  } else if (op == "stats") {
    handle_stats(conn);
  } else if (op == "ping") {
    JsonObject obj;
    obj.add_bool("ok", true);
    obj.add_string("op", "ping");
    obj.add_string("server", "moheco_d");
    obj.add_int("protocol", 1);
    obj.add_raw("build", obs::build_json());
    conn->send(obj.str());
  } else if (op == "shutdown") {
    JsonObject obj;
    obj.add_bool("ok", true);
    obj.add_string("op", "shutdown");
    conn->send(obj.str());
    log_info("moheco_d: shutdown requested by client ", conn->id());
    request_stop();
  } else {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.bad_requests;
    }
    conn->send(error_response(op, kErrBadRequest, "unknown op '" + op + "'",
                              ""));
  }
}

void Daemon::handle_submit(const std::shared_ptr<Connection>& conn,
                           const JsonValue& request) {
  JobSpec spec;
  std::string tag;
  std::string error;
  if (!decode_submit(request, &spec, &tag, &error)) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.bad_requests;
    conn->send(error_response("submit", kErrBadRequest, error, tag));
    return;
  }
  // Daemon-wide deadline default: an explicit per-job deadline_ms always
  // wins, including an explicit 0 (meaning "this job may run forever").
  if (options_.default_deadline_ms > 0) {
    const JsonValue& opts = request["options"];
    if (!opts.is_object() || opts["deadline_ms"].is_null()) {
      spec.deadline_ms = options_.default_deadline_ms;
    }
  }
  if (stop_requested_.load(std::memory_order_acquire)) {
    conn->send(error_response("submit", kErrShuttingDown,
                              "daemon is shutting down", tag));
    return;
  }
  static obs::Gauge& g_depth = obs::registry().gauge("serve.queue_depth");
  std::lock_guard<std::mutex> lock(mutex_);
  if (queued_count_ >= options_.queue_depth) {
    ++stats_.rejected;
    obs::registry().counter("serve.rejects").add(1);
    conn->send(error_response(
        "submit", kErrRejected,
        "queue full (" + std::to_string(queued_count_) +
            " queued, depth " + std::to_string(options_.queue_depth) +
            "); retry later",
        tag));
    return;
  }
  auto job = std::make_shared<Job>();
  job->id = next_job_id_++;
  job->tag = tag;
  job->spec = std::move(spec);
  job->client = conn;
  jobs_[job->id] = job;
  // Bounded history: drop the oldest TERMINAL jobs once the table grows
  // past 4096 entries (queued/running ones are never dropped).
  for (auto it = jobs_.begin(); jobs_.size() > 4096 && it != jobs_.end();) {
    const JobState s = it->second->state;
    if (s == JobState::kQueued || s == JobState::kRunning) {
      ++it;
    } else {
      it = jobs_.erase(it);
    }
  }
  std::deque<std::shared_ptr<Job>>& queue = queues_[conn->id()];
  if (queue.empty() &&
      std::find(client_order_.begin(), client_order_.end(), conn->id()) ==
          client_order_.end()) {
    client_order_.push_back(conn->id());
  }
  queue.push_back(job);
  ++queued_count_;
  g_depth.set(static_cast<std::int64_t>(queued_count_));
  ++stats_.submitted;
  JsonObject ack;
  ack.add_bool("ok", true);
  ack.add_string("op", "submit");
  ack.add_uint("job", job->id);
  ack.add_string("state", "queued");
  ack.add_uint("position", queued_count_);
  if (!tag.empty()) ack.add_string("tag", tag);
  conn->send(ack.str());
  cv_.notify_one();
}

void Daemon::handle_status(const std::shared_ptr<Connection>& conn,
                           const JsonValue& request) {
  const std::uint64_t id = request["job"].as_uint();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (id == 0 || it == jobs_.end()) {
    conn->send(error_response("status", kErrUnknownJob,
                              "no such job: " + std::to_string(id), ""));
    return;
  }
  JsonObject obj;
  obj.add_bool("ok", true);
  obj.add_string("op", "status");
  obj.add_uint("job", id);
  obj.add_string("state", to_string(it->second->state));
  if (!it->second->tag.empty()) obj.add_string("tag", it->second->tag);
  conn->send(obj.str());
}

void Daemon::handle_cancel(const std::shared_ptr<Connection>& conn,
                           const JsonValue& request) {
  const std::uint64_t id = request["job"].as_uint();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (id == 0 || it == jobs_.end()) {
    conn->send(error_response("cancel", kErrUnknownJob,
                              "no such job: " + std::to_string(id), ""));
    return;
  }
  const std::shared_ptr<Job>& job = it->second;
  const char* state = nullptr;
  switch (job->state) {
    case JobState::kQueued:
      // The job dies in place: it stays in its client queue but the
      // dispatcher skips non-queued entries.  Its owner (possibly another
      // connection than the canceller) gets the terminal line now.
      job->state = JobState::kCancelled;
      --queued_count_;
      obs::registry().gauge("serve.queue_depth").set(
          static_cast<std::int64_t>(queued_count_));
      ++stats_.cancelled;
      send_terminal(job, cancelled_terminal(job->id, "cancelled while queued",
                                            job->tag));
      state = "cancelled";
      break;
    case JobState::kRunning:
      // Cooperative: the optimizer notices at its next generation boundary
      // and the owner gets the terminal line from the dispatcher.
      job->cancel.store(true);
      state = "cancelling";
      break;
    default:
      state = to_string(job->state);  // terminal already; idempotent no-op
      break;
  }
  JsonObject obj;
  obj.add_bool("ok", true);
  obj.add_string("op", "cancel");
  obj.add_uint("job", id);
  obj.add_string("state", state);
  conn->send(obj.str());
}

void Daemon::handle_stats(const std::shared_ptr<Connection>& conn) {
  JsonObject obj;
  obj.add_bool("ok", true);
  obj.add_string("op", "stats");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    obj.add_int("connections", stats_.connections);
    obj.add_int("bad_requests", stats_.bad_requests);
    obj.add_int("submitted", stats_.submitted);
    obj.add_int("rejected", stats_.rejected);
    obj.add_int("completed", stats_.completed);
    obj.add_int("failed", stats_.failed);
    obj.add_int("cancelled", stats_.cancelled);
    obj.add_int("result_hits", stats_.result_hits);
    obj.add_int("result_misses", stats_.result_misses);
    obj.add_int("warm_hit_jobs", stats_.warm_hit_jobs);
    obj.add_int("warm_blobs_imported", stats_.warm_blobs_imported);
    obj.add_uint("queued", queued_count_);
    if (running_job_) obj.add_uint("running_job", running_job_->id);
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    obj.add_uint("result_cache_entries", result_cache_.size());
    obj.add_uint("warm_cache_entries", warm_cache_.size());
  }
  obj.add_int("workers", pool_.num_workers());
  obj.add_uint("queue_depth", options_.queue_depth);
  obj.add_uint("live_sessions", runner_.scheduler().live_sessions());
  obj.add_int("session_hits", runner_.scheduler().session_hits());
  obj.add_int("warm_opens", runner_.scheduler().warm_opens());
  // Introspection extension (docs/protocol.md "stats"): uptime, cache hit
  // rates, build identity, and the full obs::Registry snapshot (latency
  // histograms included).
  obj.add_int("uptime_ms",
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - start_time_)
                  .count());
  {
    long long hits = 0, misses = 0, warm_hits = 0, ran = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      hits = stats_.result_hits;
      misses = stats_.result_misses;
      warm_hits = stats_.warm_hit_jobs;
      ran = stats_.result_misses;
    }
    obj.add_number("result_hit_rate",
                   hits + misses > 0
                       ? static_cast<double>(hits) /
                             static_cast<double>(hits + misses)
                       : 0.0);
    obj.add_number("warm_hit_rate",
                   ran > 0 ? static_cast<double>(warm_hits) /
                                 static_cast<double>(ran)
                           : 0.0);
  }
  obj.add_raw("build", obs::build_json());
  obj.add_raw("metrics", obs::registry().snapshot().to_json());
  conn->send(obj.str());
}

// --- dispatcher ---

void Daemon::dispatcher_loop() {
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        return stop_requested_.load(std::memory_order_acquire) ||
               queued_count_ > 0;
      });
      job = pop_next_locked();
      if (!job) {
        if (stop_requested_.load(std::memory_order_acquire)) return;
        continue;  // every queued entry was a cancelled husk
      }
      job->state = JobState::kRunning;
      running_job_ = job;
    }
    run_job(job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      running_job_.reset();
    }
  }
}

std::shared_ptr<Daemon::Job> Daemon::pop_next_locked() {
  while (!client_order_.empty()) {
    if (rr_cursor_ >= client_order_.size()) rr_cursor_ = 0;
    const std::uint64_t client_id = client_order_[rr_cursor_];
    std::deque<std::shared_ptr<Job>>& queue = queues_[client_id];
    std::shared_ptr<Job> job;
    while (!queue.empty()) {
      // Cancelled-while-queued jobs linger in the deque; skip them here.
      if (queue.front()->state == JobState::kQueued) {
        job = queue.front();
        queue.pop_front();
        --queued_count_;
        obs::registry().gauge("serve.queue_depth").set(
            static_cast<std::int64_t>(queued_count_));
        break;
      }
      queue.pop_front();
    }
    if (queue.empty()) {
      queues_.erase(client_id);
      client_order_.erase(client_order_.begin() +
                          static_cast<std::ptrdiff_t>(rr_cursor_));
    } else {
      ++rr_cursor_;  // round-robin: next pop serves the next client
    }
    if (job) return job;
  }
  return nullptr;
}

void Daemon::send_terminal(const std::shared_ptr<Job>& job,
                           const std::string& line) {
  // A detached/vanished client just drops its terminal line; the job's
  // side effects (caches) are kept either way.
  if (job->client) job->client->send(line);
}

void Daemon::run_job(const std::shared_ptr<Job>& job) {
  obs::Span job_span("serve.job", static_cast<std::int64_t>(job->id));
  static obs::Histogram& job_ms = obs::registry().histogram("serve.job_us");
  obs::ScopedTimer job_timer(job_ms);
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const int workers = pool_.num_workers();
  // Crash-safe checkpoints: give every optimize job a deterministic
  // checkpoint directory keyed by what identifies its computation (deck
  // content + pre-checkpoint result fingerprint), and always set resume --
  // a fresh job finds no checkpoint and starts clean, while a daemon
  // restarted after a mid-job crash replays the interrupted run from its
  // last completed generation.  Must happen BEFORE computing rkey: the
  // checkpoint bit is part of the result fingerprint.
  if (!options_.checkpoint_dir.empty() && job->spec.mode == JobMode::kOptimize) {
    const std::string ident =
        deck_content_hash(job->spec.deck_text) + "_" +
        deck_content_hash(result_fingerprint(job->spec, workers));
    job->spec.moheco.checkpoint_dir = options_.checkpoint_dir + "/" + ident;
    job->spec.moheco.resume = true;
  }
  const std::string rkey = result_cache_key(job->spec, workers);

  if (std::optional<CachedResult> hit =
          result_lookup(rkey, job->spec.want_sized_deck)) {
    JsonObject obj;
    obj.add_bool("ok", true);
    obj.add_string("op", "result");
    obj.add_uint("job", job->id);
    obj.add_string("state", "done");
    obj.add_bool("cached", true);
    obj.add_number("elapsed_ms", elapsed_ms());
    obj.add_raw("result", hit->json);
    if (job->spec.want_sized_deck) obj.add_string("sized_deck", hit->sized_deck);
    if (!job->tag.empty()) obj.add_string("tag", job->tag);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job->state = JobState::kDone;
      ++stats_.result_hits;
      ++stats_.completed;
      obs::registry().counter("serve.result_hits").add(1);
      obs::registry().counter("serve.jobs_completed").add(1);
    }
    // Terminal lines go out without mutex_: a slow client must stall only
    // its own connection, never the dispatcher.
    send_terminal(job, obj.str());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.result_misses;
    obs::registry().counter("serve.result_misses").add(1);
  }

  const std::string wkey = warm_cache_key(job->spec);
  const std::optional<ResultMap> warm = warm_lookup(wkey);
  const bool warm_hit = warm.has_value() && !warm->empty();

  // Deadline watchdog: one scoped thread that waits out the budget, then
  // flips the job's cooperative cancel flag.  The optimizer notices at its
  // next generation boundary, so enforcement granularity is one generation
  // -- a deliberately cooperative design (no thread is ever killed, the
  // scheduler and caches stay consistent).
  std::mutex wd_mutex;
  std::condition_variable wd_cv;
  bool wd_finished = false;
  std::thread watchdog;
  if (job->spec.deadline_ms > 0) {
    const long long deadline = job->spec.deadline_ms;
    watchdog = std::thread([&wd_mutex, &wd_cv, &wd_finished, job, deadline] {
      std::unique_lock<std::mutex> lock(wd_mutex);
      const bool finished =
          wd_cv.wait_for(lock, std::chrono::milliseconds(deadline),
                         [&wd_finished] { return wd_finished; });
      if (finished) return;
      job->deadline_expired.store(true);
      job->cancel.store(true);
    });
  }

  const JobResult result =
      runner_.run(job->spec, warm_hit ? &*warm : nullptr, &job->cancel);

  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wd_mutex);
      wd_finished = true;
    }
    wd_cv.notify_all();
    watchdog.join();
  }
  // A job that produced a complete result right as the deadline fired still
  // counts as done; only a run actually cut short is reclassified.
  const bool deadline_hit =
      !result.ok && job->deadline_expired.load(std::memory_order_relaxed);

  if (result.ok) {
    result_store(rkey, result.json, result.sized_deck);
    if (!result.warm_blobs.empty()) warm_store(wkey, result.warm_blobs);
    JsonObject obj;
    obj.add_bool("ok", true);
    obj.add_string("op", "result");
    obj.add_uint("job", job->id);
    obj.add_string("state", "done");
    obj.add_bool("cached", false);
    obj.add_bool("warm_hit", warm_hit);
    obj.add_uint("warm_blobs_imported", result.warm_blobs_imported);
    obj.add_number("elapsed_ms", elapsed_ms());
    obj.add_raw("result", result.json);
    if (job->spec.want_sized_deck) obj.add_string("sized_deck", result.sized_deck);
    if (!job->tag.empty()) obj.add_string("tag", job->tag);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job->state = JobState::kDone;
      ++stats_.completed;
      obs::registry().counter("serve.jobs_completed").add(1);
      if (warm_hit) ++stats_.warm_hit_jobs;
      stats_.warm_blobs_imported +=
          static_cast<long long>(result.warm_blobs_imported);
    }
    send_terminal(job, obj.str());
    return;
  }

  const bool cancelled = result.error_code == "cancelled" && !deadline_hit;
  // A cancelled/expired optimize still exported whatever warm state it
  // built; keep it so the resubmitted job starts warm.
  if (!result.warm_blobs.empty() &&
      (cancelled || result.error_code == "cancelled")) {
    warm_store(wkey, result.warm_blobs);
  }
  JsonObject obj;
  obj.add_bool("ok", false);
  obj.add_string("op", "result");
  obj.add_uint("job", job->id);
  obj.add_string("state", cancelled ? "cancelled" : "failed");
  if (deadline_hit) {
    obj.add_string("code", kErrDeadline);
    obj.add_string("error", "job exceeded its deadline of " +
                                std::to_string(job->spec.deadline_ms) + " ms");
  } else {
    obj.add_string("code", result.error_code.empty()
                               ? kErrInternal
                               : result.error_code.c_str());
    obj.add_string("error", result.error);
  }
  obj.add_number("elapsed_ms", elapsed_ms());
  if (!job->tag.empty()) obj.add_string("tag", job->tag);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job->state = cancelled ? JobState::kCancelled : JobState::kFailed;
    if (cancelled) {
      ++stats_.cancelled;
      obs::registry().counter("serve.jobs_cancelled").add(1);
    } else {
      ++stats_.failed;
      obs::registry().counter("serve.jobs_failed").add(1);
    }
  }
  send_terminal(job, obj.str());
}

// --- caches ---

std::optional<Daemon::CachedResult> Daemon::result_lookup(
    const std::string& key, bool want_sized_deck) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = result_cache_.find(key);
    if (it != result_cache_.end()) {
      it->second.tick = ++cache_tick_;
      return it->second;
    }
  }
  if (!disk_cache_) return std::nullopt;
  std::optional<std::string> json = disk_cache_->load_text(key + "_json");
  if (!json || json->empty()) return std::nullopt;
  // A truncated/corrupted on-disk row (crash mid-write, disk damage) must
  // degrade to a cache miss, never to serving garbage to a client.
  if (!parse_json(*json)) {
    log_warn("moheco_d: ignoring corrupted cached result for key ", key);
    return std::nullopt;
  }
  CachedResult entry;
  entry.json = std::move(*json);
  if (want_sized_deck) {
    std::optional<std::string> deck = disk_cache_->load_text(key + "_deck");
    if (!deck) return std::nullopt;  // incomplete row: recompute
    entry.sized_deck = std::move(*deck);
  }
  result_store(key, entry.json, entry.sized_deck);  // promote to memory
  return entry;
}

void Daemon::result_store(const std::string& key, const std::string& json,
                          const std::string& sized_deck) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    CachedResult& entry = result_cache_[key];
    entry.json = json;
    entry.sized_deck = sized_deck;
    entry.tick = ++cache_tick_;
    while (result_cache_.size() > options_.result_cache_entries) {
      auto victim = result_cache_.begin();
      for (auto it = result_cache_.begin(); it != result_cache_.end(); ++it) {
        if (it->second.tick < victim->second.tick) victim = it;
      }
      result_cache_.erase(victim);
    }
  }
  if (disk_cache_) {
    disk_cache_->store_text(key + "_json", json);
    if (!sized_deck.empty()) disk_cache_->store_text(key + "_deck", sized_deck);
  }
}

std::optional<ResultMap> Daemon::warm_lookup(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = warm_cache_.find(key);
    if (it != warm_cache_.end()) {
      it->second.second = ++cache_tick_;
      return it->second.first;
    }
  }
  if (!disk_cache_) return std::nullopt;
  std::optional<ResultMap> blobs = disk_cache_->load(key);
  if (!blobs || blobs->empty()) return std::nullopt;
  warm_store(key, *blobs);  // promote to memory
  return blobs;
}

void Daemon::warm_store(const std::string& key, const ResultMap& blobs) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    warm_cache_[key] = {blobs, ++cache_tick_};
    while (warm_cache_.size() > options_.warm_cache_entries) {
      auto victim = warm_cache_.begin();
      for (auto it = warm_cache_.begin(); it != warm_cache_.end(); ++it) {
        if (it->second.second < victim->second.second) victim = it;
      }
      warm_cache_.erase(victim);
    }
  }
  if (disk_cache_) disk_cache_->store(key, blobs);
}

}  // namespace moheco::serve
