#include "src/obs/metrics.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "src/common/atomic_file.hpp"
#include "src/common/json.hpp"
#include "src/common/log.hpp"
#include "src/common/thread_id.hpp"

namespace moheco::obs {

namespace detail {

int shard_slot() { return thread_ordinal() % kShards; }

}  // namespace detail

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_)
    total += shard.value.load(std::memory_order_relaxed);
  return total;
}

int Histogram::bucket_index(std::uint64_t v) {
  if (v == 0) return 0;
  int width = 0;
  while (v != 0) {
    v >>= 1;
    ++width;
  }
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

std::uint64_t Histogram::bucket_upper_bound(int i) {
  if (i <= 0) return 0;
  if (i >= kHistogramBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (int i = 0; i < kHistogramBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

std::string HistogramSnapshot::to_json() const {
  std::ostringstream oss;
  oss << "{\"count\":" << count << ",\"sum\":" << sum << ",\"buckets\":[";
  bool first = true;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (!first) oss << ',';
    first = false;
    oss << '[' << Histogram::bucket_upper_bound(i) << ',' << buckets[i] << ']';
  }
  oss << "]}";
  return oss.str();
}

std::string Snapshot::to_json() const {
  JsonObject counters_obj;
  for (const auto& [name, value] : counters) counters_obj.add_uint(name, value);
  JsonObject gauges_obj;
  for (const auto& [name, value] : gauges) gauges_obj.add_int(name, value);
  JsonObject histograms_obj;
  for (const auto& hist : histograms)
    histograms_obj.add_raw(hist.name, hist.to_json());
  JsonObject root;
  root.add_raw("counters", counters_obj.str());
  root.add_raw("gauges", gauges_obj.str());
  root.add_raw("histograms", histograms_obj.str());
  return root.str();
}

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map keeps names sorted, which is what snapshot() wants;
  // unique_ptr keeps instrument addresses stable across rehashes.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Impl& Registry::impl() const {
  static Impl instance;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto& slot = i.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto& slot = i.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto& slot = i.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Snapshot Registry::snapshot() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  Snapshot snap;
  snap.counters.reserve(i.counters.size());
  for (const auto& [name, counter] : i.counters)
    snap.counters.emplace_back(name, counter->value());
  snap.gauges.reserve(i.gauges.size());
  for (const auto& [name, gauge] : i.gauges)
    snap.gauges.emplace_back(name, gauge->value());
  snap.histograms.reserve(i.histograms.size());
  for (const auto& [name, hist] : i.histograms) {
    HistogramSnapshot hs;
    hs.name = name;
    for (const auto& shard : hist->shards_) {
      for (int b = 0; b < kHistogramBuckets; ++b)
        hs.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
      hs.count += shard.count.load(std::memory_order_relaxed);
      hs.sum += shard.sum.load(std::memory_order_relaxed);
    }
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

Registry& registry() {
  static Registry instance;
  return instance;
}

bool write_metrics_json(const std::string& path) {
  const std::string error =
      write_file_atomic(path, registry().snapshot().to_json() + '\n');
  if (error.empty()) return true;
  log_error("metrics: ", error);
  return false;
}

namespace {
std::atomic<bool> g_timing_enabled{false};
}  // namespace

bool timing_enabled() {
  return g_timing_enabled.load(std::memory_order_relaxed);
}

void set_timing_enabled(bool enabled) {
  g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace moheco::obs
