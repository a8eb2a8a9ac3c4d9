#include "span_recorder.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <unordered_map>

namespace e2ebench {
namespace {

std::atomic<std::uint64_t> g_next_epoch{1};

struct ThreadCache {
  std::uint64_t epoch = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

SpanRecorder::SpanRecorder(std::uint32_t run_id)
    : run_id_(run_id), epoch_(g_next_epoch.fetch_add(1)) {}

SpanRecorder::ThreadBuffer& SpanRecorder::buffer() {
  if (t_cache.epoch == epoch_) {
    return *static_cast<ThreadBuffer*>(t_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const std::thread::id self = std::this_thread::get_id();
  ThreadBuffer* found = nullptr;
  for (const auto& b : buffers_) {
    if (b->owner == self) found = b.get();
  }
  if (found == nullptr) {
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    found = buffers_.back().get();
    found->owner = self;
    found->index = static_cast<std::uint32_t>(buffers_.size() - 1);
  }
  t_cache = {epoch_, found};
  return *found;
}

SpanRecorder::Span::Span(SpanRecorder& recorder, const char* name,
                         std::int64_t n)
    : recorder_(&recorder), buffer_(&recorder.buffer()) {
  record_.name = name;
  record_.n = n;
  record_.run = recorder.run_id_;
  record_.thread = buffer_->index;
  record_.id = recorder.next_id_.fetch_add(1, std::memory_order_relaxed);
  record_.parent = buffer_->open.empty()
                       ? recorder.ambient_.load(std::memory_order_relaxed)
                       : buffer_->open.back();
  buffer_->open.push_back(record_.id);
  recorder.begun_.fetch_add(1, std::memory_order_relaxed);
  record_.cpu_ns = thread_cpu_ns();  // the start reading, until the end
  record_.start_ns = steady_ns();
}

SpanRecorder::Span::~Span() {
  record_.end_ns = steady_ns();
  record_.cpu_ns = thread_cpu_ns() - record_.cpu_ns;
  buffer_->open.pop_back();
  buffer_->records.push_back(record_);
  recorder_->ended_.fetch_add(1, std::memory_order_relaxed);
}

SpanRecorder::AmbientScope::AmbientScope(SpanRecorder& recorder,
                                         const Span& span)
    : recorder_(&recorder), previous_(recorder.ambient_.exchange(span.id())) {}

SpanRecorder::AmbientScope::~AmbientScope() {
  recorder_->ambient_.store(previous_);
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::vector<SpanRecord> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const auto& b : buffers_) total += b->records.size();
    all.reserve(total);
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->records.begin(), b->records.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return all;
}

std::vector<std::uint64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = s.parent == 0 ? index_of.end() : index_of.find(s.parent);
    if (it == index_of.end()) continue;
    const SpanRecord& p = spans[it->second];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }

  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

void write_trace_events(std::ostream& out,
                        const std::vector<SpanRecord>& spans) {
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  std::uint64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) base = std::min(base, s.start_ns);
  out << "{\"traceEvents\":[";
  char line[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(
        line, sizeof(line),
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
        "\"n\":%lld,\"self_us\":%.3f,\"cpu_us\":%.3f}}",
        i == 0 ? "" : ",", s.name, s.run, s.thread,
        static_cast<double>(s.start_ns - base) / 1e3,
        static_cast<double>(s.duration_ns()) / 1e3,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<long long>(s.n), static_cast<double>(self[i]) / 1e3,
        static_cast<double>(s.cpu_ns) / 1e3);
    out << line;
  }
  out << "\n]}\n";
}

}  // namespace e2ebench
