// Experiment-scale options shared by all bench binaries.
//
// The paper's protocol (10 independent runs per method, 50 000-sample
// reference MC) is expensive; by default benches run a scaled-down but
// shape-preserving protocol.  MOHECO_SCALE=full (or --scale=full) restores
// the paper-scale protocol; MOHECO_SCALE=smoke shrinks everything further
// for CI-style runs.
#pragma once

#include <cstdint>
#include <string>

namespace moheco {

enum class BenchScale { kSmoke, kDefault, kFull };

struct BenchOptions {
  BenchScale scale = BenchScale::kDefault;
  /// Number of independent optimizer runs per method (paper: 10).
  int runs = 3;
  /// Reference MC sample count used to compute yield deviations (paper: 50 000).
  int reference_samples = 8000;
  /// Global RNG seed for the whole bench.
  std::uint64_t seed = 20100308;  // DATE 2010 started on March 8, 2010.
  /// Number of worker threads for MC evaluation (0 = hardware concurrency).
  int threads = 0;
  bool verbose = false;
  /// Evaluate samples with the step-bench transient as well: slew-rate and
  /// settling-time specs join the yield criterion (~100x per-sample cost).
  bool transient = false;
  /// When non-empty, benches that support it also write their metrics as a
  /// JSON object to this path (the CI perf-tracking artifact).
  std::string json;
};

/// Reads MOHECO_SCALE / MOHECO_SEED / MOHECO_THREADS / MOHECO_LOG /
/// MOHECO_TRANSIENT from the environment, then overrides from argv
/// (--scale=, --runs=, --ref=, --seed=, --threads=, --json=, --transient,
/// --verbose).  Unknown arguments throw InvalidArgument.
BenchOptions parse_bench_options(int argc, char** argv);

/// Human-readable one-line summary, printed in bench headers.
std::string describe(const BenchOptions& options);

}  // namespace moheco
