// Process-global degradation-ladder accounting.
//
// Every graceful-degradation step in the stack (sparse LU falling back to
// dense, a sample marked infeasible after solver failure, a warm-start
// blob rejected as corrupt) counts its use here, so one run-level report
// can say how often each rung was hit.  The counts live only in the
// "fail.<rung>" counters of the process-wide obs::Registry, because the
// solver layers have no channel to a per-run SimCounter; callers snapshot
// before/after a run and report the delta, which relies on the registry
// never resetting a counter.
#pragma once

#include <cstdint>
#include <string>

namespace moheco::fail {

enum class Ladder : int {
  kSparseToDense = 0,   // sparse LU breakdown retried with dense LU
  kSampleInfeasible,    // solver failure turned into a failed MC sample
  kWarmBlobRejected,    // corrupt warm blob dropped, session opened cold
  kNumLadderStages,
};

inline constexpr int kNumLadderStages =
    static_cast<int>(Ladder::kNumLadderStages);

/// Stable report name of a stage ("sparse_to_dense", ...).
const char* ladder_name(Ladder stage);

/// Records one use of a degradation stage.
void ladder_count(Ladder stage);

/// Point-in-time copy of every stage counter; subtract two snapshots to
/// attribute ladder activity to one run.
struct LadderSnapshot {
  std::uint64_t counts[kNumLadderStages] = {};

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (int i = 0; i < kNumLadderStages; ++i) sum += counts[i];
    return sum;
  }
};

LadderSnapshot ladder_snapshot();

/// `after - before`, per stage.
LadderSnapshot ladder_delta(const LadderSnapshot& before,
                            const LadderSnapshot& after);

}  // namespace moheco::fail
