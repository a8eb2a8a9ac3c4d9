// Fault-containment layer: the deterministic fail-point framework, the
// degradation ladders (sparse->dense LU, quarantine), crash-safe optimizer
// checkpoints with bit-identical resume, corrupted-cache tolerance, and
// the hardened serve path (read timeouts, socket fail points, job
// deadlines).  This is the suite the CI chaos job runs under ASan/UBSan
// with a seeded MOHECO_FAULTS matrix.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/circuits/netlist_problem.hpp"
#include "src/common/error.hpp"
#include "src/common/failpoint.hpp"
#include "src/common/failure_ladder.hpp"
#include "src/common/json.hpp"
#include "src/common/results_cache.hpp"
#include "src/core/checkpoint.hpp"
#include "src/core/moheco.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/mc/synthetic.hpp"
#include "src/serve/client.hpp"
#include "src/serve/daemon.hpp"
#include "src/serve/protocol.hpp"
#include "src/spice/mna.hpp"
#include "src/spice/netlist_format.hpp"

namespace moheco {
namespace {

/// Fail points are process-global; every test that arms them must disarm
/// on every exit path or it would poison later tests in this binary.
struct FailGuard {
  ~FailGuard() { fail::disarm(); }
};

/// Scoped scratch directory for checkpoints and cache files.
class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/moheco_faults_XXXXXX";
    const char* made = ::mkdtemp(pattern);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// --- fail-point framework -------------------------------------------------

TEST(Failpoint, SpecRoundTripsAndDisarms) {
  FailGuard guard;
  fail::arm("seed=42,sparse_factor=prob:0.25,session_open=hit:3");
  EXPECT_TRUE(fail::armed());
  const std::string spec = fail::spec_string();
  EXPECT_NE(spec.find("seed=42"), std::string::npos);
  EXPECT_NE(spec.find("sparse_factor=prob:0.25"), std::string::npos);
  EXPECT_NE(spec.find("session_open=hit:3"), std::string::npos);
  // The canonical spec re-arms to itself (stable fingerprint component).
  fail::arm(spec);
  EXPECT_EQ(fail::spec_string(), spec);
  fail::disarm();
  EXPECT_FALSE(fail::armed());
  EXPECT_EQ(fail::spec_string(), "");
  EXPECT_FALSE(fail::should_fail(fail::Site::kSparseFactor));
}

TEST(Failpoint, HitTriggerFiresExactlyOnNthHit) {
  FailGuard guard;
  fail::arm("newton=hit:3");
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(fail::should_fail(fail::Site::kNewton), i == 3) << i;
  }
  EXPECT_EQ(fail::hits(fail::Site::kNewton), 10u);
  EXPECT_EQ(fail::fires(fail::Site::kNewton), 1u);
  // Unarmed sites never fire and never count.
  EXPECT_FALSE(fail::should_fail(fail::Site::kDenseFactor));
  EXPECT_EQ(fail::hits(fail::Site::kDenseFactor), 0u);
}

TEST(Failpoint, ProbTriggerIsDeterministicPerSeed) {
  FailGuard guard;
  const auto pattern = [](const std::string& spec) {
    fail::arm(spec);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(fail::should_fail(fail::Site::kNewton));
    }
    return fired;
  };
  const std::vector<bool> a = pattern("seed=7,newton=prob:0.5");
  const std::vector<bool> b = pattern("seed=7,newton=prob:0.5");
  EXPECT_EQ(a, b);  // same seed: the exact same fire pattern
  const std::vector<bool> c = pattern("seed=8,newton=prob:0.5");
  EXPECT_NE(a, c);  // different seed: a different (still ~50%) pattern
  const long long fires_a = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fires_a, 50);
  EXPECT_LT(fires_a, 150);
}

TEST(Failpoint, ProbZeroNeverFiresProbOneAlwaysFires) {
  FailGuard guard;
  fail::arm("tran_stall=prob:0,warm_blob=prob:1");
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(fail::should_fail(fail::Site::kTranStall));
    EXPECT_TRUE(fail::should_fail(fail::Site::kWarmBlob));
  }
}

TEST(Failpoint, RejectsBadSpecs) {
  FailGuard guard;
  EXPECT_THROW(fail::arm("bogus_site=prob:0.5"), InvalidArgument);
  EXPECT_THROW(fail::arm("newton=prob:1.5"), InvalidArgument);
  EXPECT_THROW(fail::arm("newton=prob:nope"), InvalidArgument);
  EXPECT_THROW(fail::arm("newton=hit:0"), InvalidArgument);
  EXPECT_THROW(fail::arm("newton=maybe:3"), InvalidArgument);
  EXPECT_THROW(fail::arm("newton"), InvalidArgument);
  EXPECT_THROW(fail::arm("seed=-1,newton=hit:1"), InvalidArgument);
  // A rejected spec leaves the process disarmed, not half-armed.
  EXPECT_FALSE(fail::armed());
}

TEST(FailureLadder, SnapshotDeltaAttributesCounts) {
  const fail::LadderSnapshot before = fail::ladder_snapshot();
  fail::ladder_count(fail::Ladder::kSparseToDense);
  fail::ladder_count(fail::Ladder::kSparseToDense);
  fail::ladder_count(fail::Ladder::kSampleInfeasible);
  const fail::LadderSnapshot delta =
      fail::ladder_delta(before, fail::ladder_snapshot());
  EXPECT_EQ(delta.counts[static_cast<int>(fail::Ladder::kSparseToDense)], 2u);
  EXPECT_EQ(delta.counts[static_cast<int>(fail::Ladder::kSampleInfeasible)],
            1u);
  EXPECT_EQ(delta.counts[static_cast<int>(fail::Ladder::kWarmBlobRejected)],
            0u);
  EXPECT_EQ(delta.total(), 3u);
  EXPECT_STREQ(fail::ladder_name(fail::Ladder::kSparseToDense),
               "sparse_to_dense");
}

// --- sparse -> dense degradation rung -------------------------------------

TEST(MnaLadder, SparsePivotBreakdownRetriesThroughDenseLu) {
  FailGuard guard;
  // A well-conditioned 3x3 diagonal system.
  spice::MnaSystem<double> sys;
  sys.reset(3);
  const auto assemble = [&sys] {
    sys.begin_assembly();
    sys.add(0, 0, 2.0);
    sys.add(1, 1, 4.0);
    sys.add(2, 2, 8.0);
    sys.rhs_add(0, 2.0);
    sys.rhs_add(1, 8.0);
    sys.rhs_add(2, 24.0);
    sys.end_assembly();
  };
  assemble();
  ASSERT_TRUE(sys.factor());  // healthy sparse path first

  // Now the sparse factorization "breaks down": factor() must land on the
  // dense rung, count it, and still produce the right answer.
  const fail::LadderSnapshot before = fail::ladder_snapshot();
  fail::arm("sparse_factor=prob:1");
  assemble();
  ASSERT_TRUE(sys.factor());
  std::vector<double> x = sys.rhs();
  sys.solve(x);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
  const fail::LadderSnapshot delta =
      fail::ladder_delta(before, fail::ladder_snapshot());
  EXPECT_EQ(delta.counts[static_cast<int>(fail::Ladder::kSparseToDense)], 1u);

  // Both rungs failing reports breakdown to the caller (sample infeasible).
  fail::arm("sparse_factor=prob:1,dense_factor=prob:1");
  assemble();
  EXPECT_FALSE(sys.factor());
}

// --- scheduler quarantine (satellite: no lost or double-counted tallies) --

/// evaluate() throws for designs with x[0] > 0.9 -- a candidate that blows
/// up mid-flush rather than at open().
class ThrowingEvalProblem final : public mc::YieldProblem {
 public:
  std::size_t num_design_vars() const override { return 1; }
  double lower_bound(std::size_t) const override { return -1.0; }
  double upper_bound(std::size_t) const override { return 1.0; }
  std::size_t noise_dim() const override { return 1; }

  class EvalSession final : public Session {
   public:
    explicit EvalSession(bool bad) : bad_(bad) {}
    mc::SampleResult evaluate(std::span<const double> xi) override {
      if (bad_) throw Error("simulator blew up");
      mc::SampleResult r;
      r.pass = xi[0] >= 0.0;
      return r;
    }

   private:
    bool bad_;
  };

  std::unique_ptr<Session> open(std::span<const double> x) const override {
    return std::make_unique<EvalSession>(x[0] > 0.9);
  }
};

TEST(Quarantine, MidFlushThrowKeepsOtherTalliesBitIdentical) {
  const ThrowingEvalProblem problem;
  const long long kSamples = 200;

  // Chaos run: two healthy candidates flushed together with one whose
  // session throws on every evaluate().
  ThreadPool pool(2);
  mc::EvalScheduler scheduler(pool);
  mc::SimCounter sims;
  mc::CandidateYield good1(problem, {0.1}, 11);
  mc::CandidateYield good2(problem, {0.2}, 22);
  mc::CandidateYield bad(problem, {1.0}, 33);
  scheduler.enqueue(good1, kSamples, mc::McOptions{});
  scheduler.enqueue(good2, kSamples, mc::McOptions{});
  scheduler.enqueue(bad, kSamples, mc::McOptions{});
  scheduler.flush(sims);

  EXPECT_TRUE(bad.failed());
  EXPECT_EQ(bad.fail_reason(), mc::FailEvent::kQuarantineEval);
  EXPECT_EQ(sims.fail_total(mc::FailEvent::kQuarantineEval), 1);
  EXPECT_FALSE(good1.failed());
  EXPECT_FALSE(good2.failed());

  // Control run: the same healthy candidates WITHOUT the poisoned one.
  // Sample batch b is a pure function of (stream_seed, b), so the chaos
  // flush must neither lose nor double-count a single healthy sample.
  mc::EvalScheduler control_scheduler(pool);
  mc::SimCounter control_sims;
  mc::CandidateYield ref1(problem, {0.1}, 11);
  mc::CandidateYield ref2(problem, {0.2}, 22);
  control_scheduler.enqueue(ref1, kSamples, mc::McOptions{});
  control_scheduler.enqueue(ref2, kSamples, mc::McOptions{});
  control_scheduler.flush(control_sims);

  EXPECT_EQ(good1.samples(), ref1.samples());
  EXPECT_EQ(good1.passes(), ref1.passes());
  EXPECT_EQ(good2.samples(), ref2.samples());
  EXPECT_EQ(good2.passes(), ref2.passes());
  EXPECT_EQ(good1.samples(), kSamples);
  EXPECT_EQ(good2.samples(), kSamples);

  // The scheduler survives: the quarantined candidate's session is gone
  // and later flushes run normally.
  mc::CandidateYield again(problem, {0.3}, 44);
  scheduler.enqueue(again, kSamples, mc::McOptions{});
  scheduler.flush(sims);
  EXPECT_EQ(again.samples(), kSamples);
}

TEST(Quarantine, SessionOpenFailpointMarksOnlyThatCandidate) {
  FailGuard guard;
  const mc::QuadraticYieldProblem problem(2, 4, 1.0, 0.3);
  ThreadPool pool(1);
  mc::EvalScheduler scheduler(pool);
  mc::SimCounter sims;
  fail::arm("session_open=hit:1");
  mc::CandidateYield victim(problem, {0.1, 0.1}, 5);
  scheduler.refine(victim, 50, sims, mc::McOptions{});
  EXPECT_TRUE(victim.failed());
  EXPECT_EQ(victim.fail_reason(), mc::FailEvent::kQuarantineOpen);
  EXPECT_EQ(victim.samples(), 0);
  // hit:1 fired once; the next candidate opens cleanly.
  mc::CandidateYield survivor(problem, {0.2, 0.2}, 6);
  scheduler.refine(survivor, 50, sims, mc::McOptions{});
  EXPECT_FALSE(survivor.failed());
  EXPECT_EQ(survivor.samples(), 50);
  EXPECT_EQ(sims.fail_total(mc::FailEvent::kQuarantineOpen), 1);
}

TEST(Quarantine, OptimizerCompletesWithFailpointsArmed) {
  FailGuard guard;
  // Every session-open has a 20% chance to throw, and every warm-blob
  // revival is "corrupt".  The run must still complete end to end and
  // report its quarantine counters.
  fail::arm("seed=5,session_open=prob:0.2,warm_blob=prob:1");
  const mc::QuadraticYieldProblem problem(3, 6, 1.0, 0.25, 2.0);
  core::MohecoOptions options;
  options.population = 10;
  options.estimation.n0 = 10;
  options.estimation.sim_avg = 25;
  options.estimation.n_max = 120;
  options.max_generations = 8;
  options.stop_stagnation = 50;
  options.threads = 1;
  options.seed = 13;
  const core::MohecoResult result =
      core::MohecoOptimizer(problem, options).run();
  EXPECT_GE(result.generations, 1);
  EXPECT_GT(result.total_simulations, 0);
  // With 20% open failures over a whole run, quarantines are certain (and
  // deterministic: one worker, seeded triggers).
  EXPECT_GT(result.fail_breakdown.quarantine_open, 0);
}

// --- crash-safe checkpoints -----------------------------------------------

TEST(Checkpoint, SaveLoadRoundTripsEveryField) {
  TempDir dir;
  core::Checkpoint ck;
  ck.seed = 42;
  ck.dim = 3;
  ck.population = 2;
  ck.use_ocba = false;
  ck.generation = 7;
  ck.done = true;
  ck.reached_full_yield = true;
  ck.result_generations = 6;
  ck.best_scalar = 0.1;  // precision-17 text must round-trip binary64
  ck.stagnant_ls = 2;
  ck.stagnant_stop = 3;
  ck.stream_counter = 99;
  ck.rng.s[0] = 1;
  ck.rng.s[1] = 2;
  ck.rng.s[2] = 0xffffffffffffffffULL;
  ck.rng.s[3] = 4;
  ck.rng.spare = 0.3;
  ck.rng.has_spare = true;
  ck.last_local_search_x = {0.1, -0.2, 1e-300};
  ck.sims.screen = 10;
  ck.sims.stage2 = 20;
  ck.fails.quarantine_open = 1;
  core::Checkpoint::MemberState m;
  m.x = {0.25, -0.5, 0.75};
  m.feasible = true;
  m.violation = 0.0;
  m.yield = 0.875;
  m.samples = 120;
  m.has_tally = true;
  m.stream_seed = 777;
  m.tally_samples = 120;
  m.tally_passes = 105;
  m.tally_batches = 3;
  m.screened = true;
  m.nominal_pass = true;
  m.tally_failed = true;
  m.fail_reason = static_cast<int>(mc::FailEvent::kQuarantineEval);
  ck.members.push_back(m);
  ck.members.push_back(core::Checkpoint::MemberState{});
  ck.members.back().x = {1.0, 2.0, 3.0};
  ck.blobs["12345"] = {1.0, 2.5, -0.125};

  core::save_checkpoint(dir.path(), ck);
  const std::optional<core::Checkpoint> loaded =
      core::load_checkpoint(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seed, ck.seed);
  EXPECT_EQ(loaded->dim, ck.dim);
  EXPECT_EQ(loaded->population, ck.population);
  EXPECT_EQ(loaded->use_ocba, ck.use_ocba);
  EXPECT_EQ(loaded->generation, ck.generation);
  EXPECT_EQ(loaded->done, ck.done);
  EXPECT_EQ(loaded->reached_full_yield, ck.reached_full_yield);
  EXPECT_EQ(loaded->result_generations, ck.result_generations);
  EXPECT_EQ(loaded->best_scalar, ck.best_scalar);
  EXPECT_EQ(loaded->stagnant_ls, ck.stagnant_ls);
  EXPECT_EQ(loaded->stagnant_stop, ck.stagnant_stop);
  EXPECT_EQ(loaded->stream_counter, ck.stream_counter);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(loaded->rng.s[i], ck.rng.s[i]);
  EXPECT_EQ(loaded->rng.spare, ck.rng.spare);
  EXPECT_EQ(loaded->rng.has_spare, ck.rng.has_spare);
  EXPECT_EQ(loaded->last_local_search_x, ck.last_local_search_x);
  EXPECT_EQ(loaded->sims.screen, ck.sims.screen);
  EXPECT_EQ(loaded->sims.stage2, ck.sims.stage2);
  EXPECT_EQ(loaded->fails.quarantine_open, ck.fails.quarantine_open);
  ASSERT_EQ(loaded->members.size(), 2u);
  EXPECT_EQ(loaded->members[0].x, m.x);
  EXPECT_EQ(loaded->members[0].yield, m.yield);
  EXPECT_EQ(loaded->members[0].tally_passes, m.tally_passes);
  EXPECT_EQ(loaded->members[0].tally_failed, m.tally_failed);
  EXPECT_EQ(loaded->members[0].fail_reason, m.fail_reason);
  EXPECT_EQ(loaded->members[1].x, ck.members[1].x);
  ASSERT_EQ(loaded->blobs.size(), 1u);
  EXPECT_EQ(loaded->blobs.at("12345"), ck.blobs.at("12345"));
}

TEST(Checkpoint, MissingFileMeansFreshStart) {
  TempDir dir;
  EXPECT_FALSE(core::load_checkpoint(dir.path()).has_value());
}

TEST(Checkpoint, GarbageAndTruncationThrowInsteadOfMisparse) {
  TempDir dir;
  {
    std::ofstream out(dir.file("checkpoint.txt"));
    out << "this is not a checkpoint at all\n";
  }
  EXPECT_THROW(core::load_checkpoint(dir.path()), Error);

  // A real checkpoint chopped mid-file (the crash the atomic rename
  // prevents, simulated directly) must be rejected, never half-loaded.
  TempDir dir2;
  core::Checkpoint ck;
  ck.dim = 2;
  ck.population = 4;
  core::Checkpoint::MemberState m;
  m.x = {0.5, 0.5};
  ck.members.assign(4, m);
  core::save_checkpoint(dir2.path(), ck);
  std::ifstream in(dir2.file("checkpoint.txt"));
  std::stringstream whole;
  whole << in.rdbuf();
  const std::string text = whole.str();
  {
    std::ofstream out(dir2.file("checkpoint.txt"), std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }
  EXPECT_THROW(core::load_checkpoint(dir2.path()), Error);
}

TEST(Checkpoint, OlderVersionsAreRefusedOnLoad) {
  // A version-2 file has this layout but folded stage-2 samples into the
  // member fitnesses, so resuming it would leave the plain run's
  // trajectory.  A version-1 file is a version-2 file plus a "sched"
  // counter line after "sims".  The loader must refuse both rather than
  // parse around them.
  TempDir dir;
  core::Checkpoint ck;
  ck.dim = 1;
  core::save_checkpoint(dir.path(), ck);
  std::ifstream in(dir.file("checkpoint.txt"));
  std::stringstream whole;
  whole << in.rdbuf();
  const std::string text = whole.str();
  const std::string header =
      "moheco-ckpt " + std::to_string(core::kCheckpointVersion) + "\n";
  ASSERT_EQ(text.rfind(header, 0), 0u);
  const std::string rest = text.substr(header.size());
  const auto refused = [&dir](const std::string& body) {
    {
      std::ofstream out(dir.file("checkpoint.txt"), std::ios::trunc);
      out << body;
    }
    EXPECT_THROW(core::load_checkpoint(dir.path()), Error);
  };
  refused(std::string("moheco-ckpt 2\n") + rest);
  std::string v1 = std::string("moheco-ckpt 1\n") + rest;
  const std::size_t fails_line = v1.find("\nfails ");
  ASSERT_NE(fails_line, std::string::npos);
  v1.insert(fails_line, "\nsched 3 1 0 2 1 0");
  refused(v1);
}

TEST(Checkpoint, ResumeReproducesTheUninterruptedRunBitForBit) {
  // Max yield ~89% (below the full-yield stop), so the run uses all its
  // generations and the interruption lands mid-flight.  The result depends
  // on the run's inputs alone, so resume reproduces it at any worker count.
  const mc::QuadraticYieldProblem problem(3, 6, 1.0, 0.8, 2.0);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto make_options = [threads](const std::string& dir) {
      core::MohecoOptions options;
      options.population = 10;
      options.estimation.n0 = 10;
      options.estimation.sim_avg = 25;
      options.estimation.n_max = 120;
      options.max_generations = 6;
      options.stop_stagnation = 50;
      options.use_memetic = false;
      options.threads = threads;
      options.seed = 17;
      options.checkpoint_dir = dir;
      return options;
    };

    TempDir dir_a;  // the uninterrupted reference, checkpointing all along
    const core::MohecoResult uninterrupted =
        core::MohecoOptimizer(problem, make_options(dir_a.path())).run();

    TempDir dir_b;  // the "crashed" run: stopped after a few generations
    core::MohecoOptions interrupted_options = make_options(dir_b.path());
    int polls = 0;
    interrupted_options.should_stop = [&polls] { return ++polls > 2; };
    const core::MohecoResult interrupted =
        core::MohecoOptimizer(problem, interrupted_options).run();
    EXPECT_TRUE(interrupted.cancelled);
    ASSERT_TRUE(core::load_checkpoint(dir_b.path()).has_value());

    core::MohecoOptions resume_options = make_options(dir_b.path());
    resume_options.resume = true;
    const core::MohecoResult resumed =
        core::MohecoOptimizer(problem, resume_options).run();

    EXPECT_FALSE(resumed.cancelled);
    ASSERT_EQ(resumed.best.x.size(), uninterrupted.best.x.size());
    for (std::size_t i = 0; i < resumed.best.x.size(); ++i) {
      EXPECT_DOUBLE_EQ(resumed.best.x[i], uninterrupted.best.x[i]) << i;
    }
    EXPECT_EQ(resumed.best.fitness.yield, uninterrupted.best.fitness.yield);
    EXPECT_EQ(resumed.best.samples, uninterrupted.best.samples);
    EXPECT_EQ(resumed.total_simulations, uninterrupted.total_simulations);
    EXPECT_EQ(resumed.sim_breakdown, uninterrupted.sim_breakdown);
    EXPECT_EQ(resumed.fail_breakdown, uninterrupted.fail_breakdown);
    EXPECT_EQ(resumed.generations, uninterrupted.generations);
    EXPECT_EQ(resumed.reached_full_yield, uninterrupted.reached_full_yield);
  }
}

TEST(Checkpoint, ArmedOneThreadRunEqualsTheUncheckpointedRun) {
  // Writing a checkpoint leaves the scheduler's session caches as they
  // are, so at one worker a checkpointed run opens sessions in the same
  // order as a plain one -- and prob: fail points, which follow per-site
  // hit ordinals, fire on the same opens.  The cache holds every
  // candidate, so sessions outlive the generation boundaries where the
  // checkpoints land.
  FailGuard guard;
  const mc::QuadraticYieldProblem problem(3, 6, 1.0, 0.25, 2.0);
  const auto run = [&problem](const std::string& checkpoint_dir) {
    fail::arm("seed=5,session_open=prob:0.2");  // restarts the hit ordinals
    core::MohecoOptions options;
    options.population = 10;
    options.estimation.n0 = 10;
    options.estimation.sim_avg = 25;
    options.estimation.n_max = 120;
    options.max_generations = 6;
    options.stop_stagnation = 50;
    options.threads = 1;
    options.seed = 13;
    options.scheduler.sessions_per_worker = 64;
    options.checkpoint_dir = checkpoint_dir;
    return core::MohecoOptimizer(problem, options).run();
  };
  const core::MohecoResult plain = run("");
  TempDir dir;
  const core::MohecoResult checkpointed = run(dir.path());
  ASSERT_TRUE(core::load_checkpoint(dir.path()).has_value());

  EXPECT_GT(plain.fail_breakdown.quarantine_open, 0);
  EXPECT_EQ(checkpointed.fail_breakdown, plain.fail_breakdown);
  EXPECT_EQ(checkpointed.sim_breakdown, plain.sim_breakdown);
  EXPECT_EQ(checkpointed.best.x, plain.best.x);
  EXPECT_EQ(checkpointed.best.fitness.yield, plain.best.fitness.yield);
  EXPECT_EQ(checkpointed.best.samples, plain.best.samples);
  EXPECT_EQ(checkpointed.generations, plain.generations);
}

TEST(Checkpoint, HealthyOcbaRunEqualsTheUncheckpointedRun) {
  // The paper's settings on the example deck: these seeds promote
  // candidates to stage 2 in generation 0.  A checkpoint must not fold
  // those samples into the population early, or generation 1 picks a
  // different DE base vector.
  const circuits::NetlistYieldProblem problem(spice::parse_deck_file(
      std::string(MOHECO_SOURCE_DIR) + "/examples/five_t_ota.cir"));
  for (const std::uint64_t seed : {5, 6, 8}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto run = [&problem, seed](const std::string& checkpoint_dir) {
      core::MohecoOptions options;
      options.threads = 2;
      options.seed = seed;
      options.checkpoint_dir = checkpoint_dir;
      return core::MohecoOptimizer(problem, options).run();
    };
    const core::MohecoResult plain = run("");
    TempDir dir;
    const core::MohecoResult checkpointed = run(dir.path());
    ASSERT_TRUE(core::load_checkpoint(dir.path()).has_value());

    EXPECT_GT(plain.sim_breakdown.stage2, 0);
    EXPECT_EQ(checkpointed.best.x, plain.best.x);
    EXPECT_EQ(checkpointed.best.fitness.yield, plain.best.fitness.yield);
    EXPECT_EQ(checkpointed.best.samples, plain.best.samples);
    EXPECT_EQ(checkpointed.sim_breakdown, plain.sim_breakdown);
    EXPECT_EQ(checkpointed.fail_breakdown, plain.fail_breakdown);
    EXPECT_EQ(checkpointed.generations, plain.generations);
  }
}

TEST(Checkpoint, ResumeRejectsAMismatchedRunShape) {
  const mc::QuadraticYieldProblem problem(3, 6, 1.0, 0.8, 2.0);
  TempDir dir;
  core::MohecoOptions options;
  options.population = 10;
  options.estimation.n0 = 10;
  options.estimation.sim_avg = 25;
  options.estimation.n_max = 120;
  options.max_generations = 2;
  options.threads = 1;
  options.seed = 17;
  options.checkpoint_dir = dir.path();
  core::MohecoOptimizer(problem, options).run();

  core::MohecoOptions other = options;
  other.resume = true;
  other.seed = 18;  // a different run identity must not silently resume
  EXPECT_THROW(core::MohecoOptimizer(problem, other).run(), Error);
}

// --- corrupted results-cache tolerance (satellite) ------------------------

TEST(ResultsCacheFaults, CorruptedFileWarnsAndStartsEmpty) {
  TempDir dir;
  ResultsCache cache(dir.path());
  // A healthy row round-trips first.
  ResultMap healthy;
  healthy["yield"] = {0.5, 1.0};
  cache.store("deck_key", healthy);
  ASSERT_TRUE(cache.load("deck_key").has_value());

  // Clobber the cache file with trailing garbage in a value row -- the
  // torn-write shape the atomic rename normally prevents.
  {
    std::ofstream out(dir.file("deck_key.txt"), std::ios::trunc);
    out << "# moheco results cache, key=deck_key\n"
        << "yield 0.5 1.0 garbage_not_a_number\n";
  }
  EXPECT_FALSE(cache.load("deck_key").has_value());

  // A fresh store repairs the entry.
  cache.store("deck_key", healthy);
  const std::optional<ResultMap> reloaded = cache.load("deck_key");
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->at("yield"), healthy.at("yield"));
}

// --- serve path: line reader timeouts and socket fail points --------------

TEST(ServeFaults, ReadTimeoutIsRetryableEofIsNot) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::LineReader reader(fds[0]);
  reader.set_read_timeout(50);

  // Nothing to read: timeout, flagged retryable, stream NOT broken.
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.timed_out());

  ASSERT_TRUE(serve::send_line(fds[1], "hello"));
  const std::optional<std::string> line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "hello");
  EXPECT_FALSE(reader.timed_out());

  // EOF: nullopt WITHOUT the timeout flag -- the peer is gone for good.
  ::close(fds[1]);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.timed_out());
  ::close(fds[0]);
}

TEST(ServeFaults, SocketFailpointsBreakWriteAndRead) {
  FailGuard guard;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  fail::arm("sock_write=hit:1");
  EXPECT_FALSE(serve::send_line(fds[0], "dropped"));  // the armed write
  EXPECT_TRUE(serve::send_line(fds[0], "delivered"));

  fail::arm("sock_read=hit:1");
  serve::LineReader reader(fds[1]);
  EXPECT_FALSE(reader.next().has_value());  // injected read error...
  EXPECT_FALSE(reader.timed_out());         // ...is a hard break
  fail::disarm();
  EXPECT_FALSE(reader.next().has_value());  // broken streams stay broken
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- serve path: deadline codec and enforcement ---------------------------

TEST(ServeFaults, DeadlineCodecRoundTripsAndStaysOffTheDefaultWire) {
  serve::JobSpec spec;
  spec.deck_name = "dut.cir";
  spec.deck_text = "* deck\n.end\n";
  spec.mode = serve::JobMode::kEstimate;
  // deadline_ms = 0 (the default) must not appear on the wire at all, so
  // pre-deadline clients and byte-identity fixtures are unaffected.
  EXPECT_EQ(serve::encode_submit(spec, "").find("deadline_ms"),
            std::string::npos);

  spec.deadline_ms = 1500;
  const std::optional<JsonValue> parsed =
      parse_json(serve::encode_submit(spec, ""));
  ASSERT_TRUE(parsed.has_value());
  serve::JobSpec decoded;
  std::string tag;
  std::string error;
  ASSERT_TRUE(serve::decode_submit(*parsed, &decoded, &tag, &error)) << error;
  EXPECT_EQ(decoded.deadline_ms, 1500);
  // The deadline shapes scheduling, not results: fingerprints ignore it.
  spec.deadline_ms = 0;
  EXPECT_EQ(serve::result_fingerprint(decoded, 1),
            serve::result_fingerprint(spec, 1));

  const std::optional<JsonValue> negative = parse_json(
      "{\"op\":\"submit\",\"mode\":\"estimate\",\"deck\":\"x\","
      "\"options\":{\"deadline_ms\":-1}}");
  ASSERT_TRUE(negative.has_value());
  EXPECT_FALSE(serve::decode_submit(*negative, &decoded, &tag, &error));
  EXPECT_FALSE(error.empty());
}

std::string example_deck() {
  const std::string path =
      std::string(MOHECO_SOURCE_DIR) + "/examples/five_t_ota.cir";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// An optimize job whose first generation alone takes far longer than the
/// deadlines below (fixed budget, no OCBA early-outs), so the watchdog
/// always fires mid-flight -- never a completed-at-the-wire race.
serve::JobSpec blocker_spec(const std::string& deck_text) {
  serve::JobSpec spec;
  spec.deck_name = "blocker";
  spec.deck_text = deck_text;
  spec.mode = serve::JobMode::kOptimize;
  spec.moheco.seed = 99;
  spec.moheco.population = 8;
  spec.moheco.max_generations = 100000;
  spec.moheco.stop_stagnation = 1000000;
  spec.moheco.use_ocba = false;
  spec.moheco.fixed_budget = 5000;
  return spec;
}

JsonValue read_terminal(serve::ServeClient& client) {
  while (true) {
    const std::optional<std::string> line = client.read_line();
    if (!line) {
      ADD_FAILURE() << "connection closed before a terminal line";
      return JsonValue::make_null();
    }
    const std::optional<JsonValue> parsed = parse_json(*line);
    if (!parsed) continue;
    if ((*parsed)["op"].as_string() == "result") return *parsed;
  }
}

TEST(ServeFaults, DeadlineExpiryFailsTheJobWithTheDeadlineCode) {
  const std::string deck = example_deck();
  TempDir dir;
  serve::DaemonOptions options;
  options.socket_path = dir.file("d.sock");
  options.threads = 1;
  serve::Daemon daemon(options);
  daemon.start();

  serve::ServeClient client;
  client.connect(options.socket_path);
  serve::JobSpec spec = blocker_spec(deck);
  spec.deadline_ms = 30;  // expires long before the first generation ends
  const JsonValue ack = client.request(serve::encode_submit(spec, "dl"));
  ASSERT_TRUE(ack["ok"].as_bool());
  const JsonValue terminal = read_terminal(client);
  EXPECT_FALSE(terminal["ok"].as_bool(true));
  EXPECT_EQ(terminal["state"].as_string(), "failed");
  EXPECT_EQ(terminal["code"].as_string(), serve::kErrDeadline);
  EXPECT_NE(terminal["error"].as_string().find("deadline"),
            std::string::npos);
  const JsonValue stats = client.request(serve::encode_op("stats"));
  EXPECT_EQ(stats["failed"].as_int(), 1);
}

TEST(ServeFaults, ExplicitZeroDeadlineBeatsTheDaemonDefault) {
  const std::string deck = example_deck();
  TempDir dir;
  serve::DaemonOptions options;
  options.socket_path = dir.file("d.sock");
  options.threads = 1;
  options.default_deadline_ms = 100;  // would kill the blocker quickly...
  serve::Daemon daemon(options);
  daemon.start();

  serve::ServeClient client;
  serve::ServeClient control;
  client.connect(options.socket_path);
  control.connect(options.socket_path);
  // ...but the client explicitly opts out with deadline_ms: 0.  The codec
  // omits zeros, so splice the explicit zero into the encoded line.
  serve::JobSpec spec = blocker_spec(deck);
  spec.deadline_ms = 1;
  std::string line = serve::encode_submit(spec, "z");
  const std::size_t at = line.find("\"deadline_ms\":1");
  ASSERT_NE(at, std::string::npos);
  line.replace(at, std::string("\"deadline_ms\":1").size(),
               "\"deadline_ms\":0");
  const JsonValue ack = client.request(line);
  ASSERT_TRUE(ack["ok"].as_bool()) << ack.raw();
  const std::uint64_t job = ack["job"].as_uint();

  // Well past the daemon default the job is still alive (or finished on
  // its own merits) -- anything but a deadline failure.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const JsonValue status = control.request(serve::encode_job_op("status", job));
  EXPECT_NE(status["state"].as_string(), "failed") << status.raw();
  control.request(serve::encode_job_op("cancel", job));
  const JsonValue terminal = read_terminal(client);
  EXPECT_NE(terminal["state"].as_string(), "failed") << terminal.raw();
  EXPECT_NE(terminal["code"].as_string(), serve::kErrDeadline);
}

}  // namespace
}  // namespace moheco
