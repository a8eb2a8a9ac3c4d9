#include "src/common/results_cache.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/atomic_file.hpp"
#include "src/common/log.hpp"
#include "src/obs/metrics.hpp"

namespace moheco {
namespace {

// Keys become file names; keep them portable.
std::string sanitize(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

ResultsCache::ResultsCache(std::string path) : path_(std::move(path)) {}

ResultsCache ResultsCache::default_cache() {
  if (const char* env = std::getenv("MOHECO_CACHE_DIR")) {
    return ResultsCache(env);
  }
  return ResultsCache("/tmp/moheco_cache");
}

std::string ResultsCache::file_for(const std::string& key) const {
  return path_ + "/" + sanitize(key) + ".txt";
}

std::optional<ResultMap> ResultsCache::load(const std::string& key) const {
  static obs::Counter& hits = obs::registry().counter("results_cache.hits");
  static obs::Counter& misses =
      obs::registry().counter("results_cache.misses");
  std::ifstream in(file_for(key));
  if (!in) {
    misses.add(1);
    return std::nullopt;
  }
  ResultMap results;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream iss(line);
    std::string name;
    if (!(iss >> name)) return std::nullopt;
    std::vector<double> values;
    double v = 0.0;
    while (iss >> v) values.push_back(v);
    // A row with unparseable bytes after its values means the file is
    // truncated or corrupted (crash mid-write predating the atomic-rename
    // discipline, disk damage, somebody's stray edit).  A cache must never
    // serve a half-read row: warn and start empty -- everything it held is
    // recomputable by definition.
    if (!iss.eof()) {
      log_warn("results cache: ignoring corrupted file ", file_for(key),
               " (unparseable values for '", name, "'); starting empty");
      misses.add(1);
      return std::nullopt;
    }
    results[name] = std::move(values);
  }
  if (results.empty()) {
    misses.add(1);
    return std::nullopt;
  }
  hits.add(1);
  return results;
}

void ResultsCache::store(const std::string& key, const ResultMap& results) const {
  std::error_code ec;
  std::filesystem::create_directories(path_, ec);
  if (ec) {
    log_warn("results cache: cannot create ", path_, ": ", ec.message());
    return;
  }
  // Concurrently running bench binaries sharing the cache directory either
  // see the old complete file or the new complete file, never a torn write.
  std::ostringstream out;
  out.precision(17);
  out << "# moheco results cache, key=" << key << "\n";
  for (const auto& [name, values] : results) {
    out << name;
    for (double v : values) out << ' ' << v;
    out << '\n';
  }
  const std::string error = write_file_atomic(file_for(key), out.str());
  if (!error.empty()) log_warn("results cache: ", error);
}

std::optional<std::string> ResultsCache::load_text(const std::string& key) const {
  static obs::Counter& hits =
      obs::registry().counter("results_cache.text_hits");
  static obs::Counter& misses =
      obs::registry().counter("results_cache.text_misses");
  std::ifstream in(path_ + "/" + sanitize(key) + ".blob",
                   std::ios::in | std::ios::binary);
  if (!in) {
    misses.add(1);
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    misses.add(1);
    return std::nullopt;
  }
  hits.add(1);
  return buffer.str();
}

void ResultsCache::store_text(const std::string& key,
                              const std::string& text) const {
  std::error_code ec;
  std::filesystem::create_directories(path_, ec);
  if (ec) {
    log_warn("results cache: cannot create ", path_, ": ", ec.message());
    return;
  }
  const std::string error =
      write_file_atomic(path_ + "/" + sanitize(key) + ".blob", text);
  if (!error.empty()) log_warn("results cache: ", error);
}

}  // namespace moheco
