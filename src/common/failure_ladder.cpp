#include "src/common/failure_ladder.hpp"

#include <array>
#include <string>

#include "src/obs/metrics.hpp"

namespace moheco::fail {
namespace {

constexpr const char* kStageNames[kNumLadderStages] = {
    "sparse_to_dense",
    "sample_infeasible",
    "warm_blob_rejected",
};

/// The "fail.<rung>" registry counter of a stage: the only store of ladder
/// counts.
obs::Counter& rung_counter(int stage) {
  static const std::array<obs::Counter*, kNumLadderStages> rungs = [] {
    std::array<obs::Counter*, kNumLadderStages> r{};
    for (int i = 0; i < kNumLadderStages; ++i) {
      r[i] = &obs::registry().counter(std::string("fail.") + kStageNames[i]);
    }
    return r;
  }();
  return *rungs[stage];
}

}  // namespace

const char* ladder_name(Ladder stage) {
  return kStageNames[static_cast<int>(stage)];
}

void ladder_count(Ladder stage) {
  rung_counter(static_cast<int>(stage)).add(1);
}

LadderSnapshot ladder_snapshot() {
  LadderSnapshot snap;
  for (int i = 0; i < kNumLadderStages; ++i) {
    snap.counts[i] = rung_counter(i).value();
  }
  return snap;
}

LadderSnapshot ladder_delta(const LadderSnapshot& before,
                            const LadderSnapshot& after) {
  LadderSnapshot delta;
  for (int i = 0; i < kNumLadderStages; ++i) {
    delta.counts[i] = after.counts[i] - before.counts[i];
  }
  return delta;
}

}  // namespace moheco::fail
