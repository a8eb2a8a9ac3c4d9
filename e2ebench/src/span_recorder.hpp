// In-memory span recorder for the benchmark's traced runs.
//
// The program's own tracer (src/obs/trace.hpp) keeps a 16,384-event ring
// per thread and overwrites the oldest events, so it cannot hold the
// hundreds of thousands of evaluation spans one traced run produces.  This
// recorder keeps every span: each thread appends to its own growable
// buffer (no lock after the thread's first span), and the benchmark reads
// or writes them all once the run ends.  begun() == recorded() after every
// span has closed is the "nothing dropped" invariant the tests pin.
//
// A span's parent is the innermost span open on the same thread; a span
// opened on a thread with no open span (a pool worker) takes the recorder's
// ambient parent, which the benchmark points at the workload call that is
// running on the main thread (see AmbientScope).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

namespace e2ebench {

struct SpanRecord {
  const char* name = nullptr;  ///< string literal
  std::uint64_t id = 0;        ///< 1-based, unique within the recorder
  std::uint64_t parent = 0;    ///< 0 = root
  std::uint64_t start_ns = 0;  ///< steady clock
  std::uint64_t end_ns = 0;
  std::uint64_t cpu_ns = 0;    ///< CPU time the thread spent in the span
  std::uint32_t thread = 0;    ///< recorder-local thread index
  std::uint32_t run = 0;       ///< run id (the workload seed's low bits)
  std::int64_t n = 0;          ///< payload: lanes for evaluations, else 0

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

std::uint64_t steady_ns();
/// CPU time consumed by the calling thread.
std::uint64_t thread_cpu_ns();

class SpanRecorder {
  struct ThreadBuffer;

 public:
  explicit SpanRecorder(std::uint32_t run_id);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span.  `name` must be a string literal (only the pointer is kept).
  class Span {
   public:
    Span(SpanRecorder& recorder, const char* name, std::int64_t n = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    std::uint64_t id() const { return record_.id; }

   private:
    SpanRecorder* recorder_;
    /// The opening thread's buffer; a span ends on the thread it began on.
    ThreadBuffer* buffer_;
    SpanRecord record_;
  };

  /// Makes `span` the parent of spans opened on threads that have no open
  /// span of their own, for the lifetime of the scope.
  class AmbientScope {
   public:
    AmbientScope(SpanRecorder& recorder, const Span& span);
    ~AmbientScope();
    AmbientScope(const AmbientScope&) = delete;
    AmbientScope& operator=(const AmbientScope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::uint64_t previous_;
  };

  /// Spans opened / closed so far (equal once every span has ended).
  std::uint64_t begun() const { return begun_.load(); }
  std::uint64_t recorded() const { return ended_.load(); }

  /// Every recorded span, ordered by start time.  Call only while no span
  /// is being recorded.
  std::vector<SpanRecord> spans() const;

 private:
  struct ThreadBuffer {
    std::thread::id owner;
    std::uint32_t index = 0;
    std::vector<SpanRecord> records;
    std::vector<std::uint64_t> open;  ///< ids of this thread's open spans
  };
  ThreadBuffer& buffer();

  const std::uint32_t run_id_;
  /// Distinguishes this recorder from an earlier one at the same address in
  /// the per-thread buffer cache.
  const std::uint64_t epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> begun_{0};
  std::atomic<std::uint64_t> ended_{0};
  std::atomic<std::uint64_t> ambient_{0};
  mutable std::mutex mutex_;  ///< guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the length of the union of its children's intervals (clipped to the
/// span).  Children may run on other threads and overlap each other.
std::vector<std::uint64_t> self_times_ns(const std::vector<SpanRecord>& spans);

/// Writes Chrome trace-event JSON ("ph":"X", microsecond timestamps
/// relative to the earliest span; Perfetto opens it) with id, parent, n,
/// self time and CPU time in args, the run id as pid and the thread index
/// as tid.
void write_trace_events(std::ostream& out,
                        const std::vector<SpanRecord>& spans);

}  // namespace e2ebench
