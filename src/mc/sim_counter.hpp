// Shared simulation-budget accounting.
//
// The paper reports costs in "number of simulations"; every evaluation of a
// (design, sample) pair -- including the nominal acceptance-sampling screens
// -- increments this counter exactly once.  Counts are kept per phase of the
// two-stage flow so the ablation benches can report where the budget went,
// next to the candidates quarantined per reason.  That is all of a run's
// outcome that the result JSON and the checkpoint carry; with fail points
// disarmed it depends on the run's inputs alone.  Process-wide telemetry
// (scheduler session and affinity events, degradation-ladder rungs) lives
// only in the obs::Registry (see docs/observability.md).
#pragma once

#include <atomic>
#include <cstddef>

namespace moheco::mc {

/// Which part of the estimation flow an evaluation belongs to.
enum class SimPhase : int {
  kScreen = 0,  ///< nominal acceptance-sampling screens
  kStage1,      ///< stage-1 pilot batches (n0 per new candidate)
  kOcba,        ///< OCBA delta-increment rounds
  kStage2,      ///< stage-2 accurate estimation (promotion to n_max)
  kOther,       ///< everything else (fixed-budget baselines, reporting, NM)
};

inline constexpr std::size_t kNumSimPhases = 5;

/// Fault-containment events: why a candidate was quarantined during a
/// flush.  Each quarantine marks exactly one candidate failed with one of
/// these reason codes (see EvalScheduler); healthy runs record none.
enum class FailEvent : int {
  kQuarantineOpen = 0,  ///< session open()/open_warm() threw
  kQuarantineEval,      ///< evaluate() threw mid-flush
  kQuarantineScreen,    ///< nominal screen evaluation threw
};

inline constexpr std::size_t kNumFailEvents = 3;

inline const char* to_string(FailEvent event) {
  switch (event) {
    case FailEvent::kQuarantineOpen: return "quarantine_open";
    case FailEvent::kQuarantineEval: return "quarantine_eval";
    case FailEvent::kQuarantineScreen: return "quarantine_screen";
  }
  return "?";
}

/// A plain (non-atomic) snapshot of the quarantine totals.
struct FailBreakdown {
  long long quarantine_open = 0;
  long long quarantine_eval = 0;
  long long quarantine_screen = 0;

  long long total() const {
    return quarantine_open + quarantine_eval + quarantine_screen;
  }

  FailBreakdown& operator+=(const FailBreakdown& rhs) {
    quarantine_open += rhs.quarantine_open;
    quarantine_eval += rhs.quarantine_eval;
    quarantine_screen += rhs.quarantine_screen;
    return *this;
  }

  bool operator==(const FailBreakdown&) const = default;
};

inline const char* to_string(SimPhase phase) {
  switch (phase) {
    case SimPhase::kScreen: return "screen";
    case SimPhase::kStage1: return "stage1";
    case SimPhase::kOcba: return "ocba";
    case SimPhase::kStage2: return "stage2";
    case SimPhase::kOther: return "other";
  }
  return "?";
}

/// A plain (non-atomic) snapshot of the per-phase totals.
struct SimBreakdown {
  long long screen = 0;
  long long stage1 = 0;
  long long ocba = 0;
  long long stage2 = 0;
  long long other = 0;

  long long total() const { return screen + stage1 + ocba + stage2 + other; }

  SimBreakdown& operator+=(const SimBreakdown& rhs) {
    screen += rhs.screen;
    stage1 += rhs.stage1;
    ocba += rhs.ocba;
    stage2 += rhs.stage2;
    other += rhs.other;
    return *this;
  }

  bool operator==(const SimBreakdown&) const = default;
};

class SimCounter {
 public:
  void add(long long n = 1, SimPhase phase = SimPhase::kOther) {
    counts_[static_cast<std::size_t>(phase)].fetch_add(
        n, std::memory_order_relaxed);
  }

  long long total() const {
    long long sum = 0;
    for (const auto& c : counts_) sum += c.load(std::memory_order_relaxed);
    return sum;
  }

  long long phase_total(SimPhase phase) const {
    return counts_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }

  void add_fail(FailEvent event, long long n = 1) {
    fails_[static_cast<std::size_t>(event)].fetch_add(
        n, std::memory_order_relaxed);
  }

  long long fail_total(FailEvent event) const {
    return fails_[static_cast<std::size_t>(event)].load(
        std::memory_order_relaxed);
  }

  FailBreakdown fail_breakdown() const {
    FailBreakdown b;
    b.quarantine_open = fail_total(FailEvent::kQuarantineOpen);
    b.quarantine_eval = fail_total(FailEvent::kQuarantineEval);
    b.quarantine_screen = fail_total(FailEvent::kQuarantineScreen);
    return b;
  }

  SimBreakdown breakdown() const {
    SimBreakdown b;
    b.screen = phase_total(SimPhase::kScreen);
    b.stage1 = phase_total(SimPhase::kStage1);
    b.ocba = phase_total(SimPhase::kOcba);
    b.stage2 = phase_total(SimPhase::kStage2);
    b.other = phase_total(SimPhase::kOther);
    return b;
  }

  void reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    for (auto& f : fails_) f.store(0, std::memory_order_relaxed);
  }

  /// Checkpoint restore: overwrites every counter from saved snapshots.
  void restore(const SimBreakdown& sim, const FailBreakdown& fail) {
    auto set = [](std::atomic<long long>& c, long long v) {
      c.store(v, std::memory_order_relaxed);
    };
    set(counts_[static_cast<std::size_t>(SimPhase::kScreen)], sim.screen);
    set(counts_[static_cast<std::size_t>(SimPhase::kStage1)], sim.stage1);
    set(counts_[static_cast<std::size_t>(SimPhase::kOcba)], sim.ocba);
    set(counts_[static_cast<std::size_t>(SimPhase::kStage2)], sim.stage2);
    set(counts_[static_cast<std::size_t>(SimPhase::kOther)], sim.other);
    set(fails_[static_cast<std::size_t>(FailEvent::kQuarantineOpen)],
        fail.quarantine_open);
    set(fails_[static_cast<std::size_t>(FailEvent::kQuarantineEval)],
        fail.quarantine_eval);
    set(fails_[static_cast<std::size_t>(FailEvent::kQuarantineScreen)],
        fail.quarantine_screen);
  }

 private:
  std::atomic<long long> counts_[kNumSimPhases] = {};
  std::atomic<long long> fails_[kNumFailEvents] = {};
};

}  // namespace moheco::mc
