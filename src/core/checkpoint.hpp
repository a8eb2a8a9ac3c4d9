// Crash-safe optimizer checkpoints.
//
// A checkpoint is the complete generation-granular state of a
// MohecoOptimizer run: the loop-control scalars, the RNG stream, the
// population (design vectors, fitnesses and full MC tally state) and the
// scheduler's warm-start blob store.  Everything lands in ONE text file
// written via temp-file + atomic rename, so a reader never observes a torn
// or internally inconsistent checkpoint: a crash at any instant leaves
// either the previous complete generation or the new complete generation.
//
// Determinism: sample batch b of a candidate is a pure function of
// (stream_seed, b), so the tally counters (samples/passes/batches) plus the
// screen state fully reproduce the candidate's stream position.  Together
// with the optimizer RNG state and the normalized scheduler blob store
// (EvalScheduler::checkpoint_blobs), resuming from generation g replays the
// remaining generations bit-identically to the uninterrupted run, at any
// worker count (fail points disarmed).  The saved counters
// are the run's outcome only -- simulations per phase and quarantines per
// reason; scheduler events are process telemetry and are not saved.
//
// Doubles are stored at precision 17 (shortest exactly-round-tripping
// decimal length for binary64), the same discipline as ResultsCache.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/results_cache.hpp"
#include "src/mc/sim_counter.hpp"
#include "src/stats/rng.hpp"

namespace moheco::core {

/// On-disk checkpoint format version; bumped on layout changes.  A loader
/// seeing any other version throws instead of guessing (compatibility is
/// "re-run from scratch", never silent misparse).
inline constexpr int kCheckpointVersion = 2;

struct Checkpoint {
  // --- identity: validated against the resuming run's options ---
  std::uint64_t seed = 0;
  std::size_t dim = 0;
  int population = 0;
  bool use_ocba = true;

  // --- loop control ---
  int generation = 0;  ///< last completed generation (0 = init only)
  /// The generation loop reached its stopping rule; resume skips straight
  /// to the final-report tail (whose refinement samples are drawn after the
  /// last checkpoint and replay deterministically).
  bool done = false;
  bool reached_full_yield = false;
  int result_generations = 0;
  double best_scalar = 0.0;
  int stagnant_ls = 0;
  int stagnant_stop = 0;
  std::uint64_t stream_counter = 0;
  stats::Rng::State rng{};
  std::vector<double> last_local_search_x;

  // --- counters ---
  mc::SimBreakdown sims;
  mc::FailBreakdown fails;

  // --- population ---
  struct MemberState {
    std::vector<double> x;
    bool feasible = false;
    double violation = 0.0;
    double yield = 0.0;
    long long samples = 0;
    /// Feasible members carry a live MC tally (see core::Member).
    bool has_tally = false;
    std::uint64_t stream_seed = 0;
    long long tally_samples = 0;
    long long tally_passes = 0;
    long long tally_batches = 0;
    bool screened = false;
    bool nominal_pass = false;
    double nominal_violation = 0.0;
    bool tally_failed = false;
    int fail_reason = 0;
  };
  std::vector<MemberState> members;

  /// EvalScheduler::checkpoint_blobs() snapshot (decimal design hash ->
  /// warm-start blob), re-imported on resume.
  ResultMap blobs;
};

/// Writes `state` to `dir`/checkpoint.txt (directory created as needed) via
/// temp-file + atomic rename.  Throws Error on I/O failure: a checkpointed
/// run that silently stops checkpointing is worse than one that stops.
void save_checkpoint(const std::string& dir, const Checkpoint& state);

/// Loads `dir`/checkpoint.txt.  Returns nullopt when the file does not
/// exist (resume falls back to a fresh run); throws Error when the file
/// exists but cannot be parsed or has an unknown version.
std::optional<Checkpoint> load_checkpoint(const std::string& dir);

}  // namespace moheco::core
