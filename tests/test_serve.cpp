// serve/: the moheco_d serving subsystem.  Covers the submit codec and its
// strictness, the cache-key discipline (content hash, warm vs result
// fingerprints), and a live in-process Daemon + ServeClient over a
// Unix-domain socket / loopback TCP: the CLI-vs-daemon byte-identity gate,
// result-cache hits (in memory and across a restart), warm-blob near
// misses, bounded admission, queued/running cancellation, per-client
// round-robin fairness, and the shutdown op.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/failpoint.hpp"
#include "src/common/json.hpp"
#include "src/common/parallel.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/client.hpp"
#include "src/serve/daemon.hpp"
#include "src/serve/job_runner.hpp"
#include "src/serve/protocol.hpp"

namespace moheco::serve {
namespace {

std::string example_deck_path() {
  return std::string(MOHECO_SOURCE_DIR) + "/examples/five_t_ota.cir";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// Scoped scratch directory for sockets and cache files.
class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/moheco_serve_XXXXXX";
    const char* made = ::mkdtemp(pattern);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

JobSpec estimate_spec(const std::string& deck_text, std::uint64_t seed,
                      long long samples = 400) {
  JobSpec spec;
  spec.deck_name = "five_t_ota.cir";
  spec.deck_text = deck_text;
  spec.mode = JobMode::kEstimate;
  spec.estimate_samples = samples;
  spec.moheco.seed = seed;
  return spec;
}

/// An optimize job that runs until cancelled: the "gate" the queueing
/// tests park in front of the dispatcher (cooperative cancel releases it
/// within one generation, so no test ever waits out the generation cap).
JobSpec blocker_spec(const std::string& deck_text) {
  JobSpec spec;
  spec.deck_name = "blocker";
  spec.deck_text = deck_text;
  spec.mode = JobMode::kOptimize;
  spec.moheco.seed = 99;
  spec.moheco.population = 8;
  spec.moheco.max_generations = 100000;
  spec.moheco.stop_stagnation = 1000000;
  return spec;
}

/// Reads response lines until the job-terminal one (op == "result").
JsonValue read_terminal(ServeClient& client) {
  while (true) {
    const std::optional<std::string> line = client.read_line();
    if (!line) {
      ADD_FAILURE() << "connection closed before a terminal line";
      return JsonValue::make_null();
    }
    const std::optional<JsonValue> parsed = parse_json(*line);
    if (!parsed) {
      ADD_FAILURE() << "unparseable response line: " << *line;
      continue;
    }
    if ((*parsed)["op"].as_string() == "result") return *parsed;
  }
}

bool wait_for_state(ServeClient& control, std::uint64_t job,
                    const std::string& want) {
  for (int i = 0; i < 2500; ++i) {
    const JsonValue r = control.request(encode_job_op("status", job));
    if (r["state"].as_string() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// --- cache-key discipline (satellite: warm key is content + validity) -----

TEST(CacheKeys, ContentHashIgnoresPathAndName) {
  const std::string deck = read_file(example_deck_path());
  JobSpec a = estimate_spec(deck, 7);
  JobSpec b = estimate_spec(deck, 7);
  b.deck_name = "/somewhere/else/copy_of_the_deck.cir";
  // Same bytes, different provenance: one workload identity.
  EXPECT_EQ(deck_content_hash(a.deck_text), deck_content_hash(b.deck_text));
  EXPECT_EQ(warm_cache_key(a), warm_cache_key(b));
  // The result JSON embeds the name, so the result key must differ...
  EXPECT_NE(result_cache_key(a, 1), result_cache_key(b, 1));
  // ...and different deck bytes are a different workload for both keys.
  JobSpec c = estimate_spec(deck + "\n* trailing comment\n", 7);
  EXPECT_NE(warm_cache_key(a), warm_cache_key(c));
  EXPECT_NE(result_cache_key(a, 1), result_cache_key(c, 1));
}

TEST(CacheKeys, WarmKeyIgnoresEverythingButBlobValidity) {
  const std::string deck = read_file(example_deck_path());
  const JobSpec base = estimate_spec(deck, 7);

  // Seed, mode, sample count, pool width: all irrelevant to whether a
  // nominal warm-start blob applies -- the "near miss" fast path.
  JobSpec other_seed = base;
  other_seed.moheco.seed = 8;
  JobSpec optimize = base;
  optimize.mode = JobMode::kOptimize;
  EXPECT_EQ(warm_cache_key(base), warm_cache_key(other_seed));
  EXPECT_EQ(warm_cache_key(base), warm_cache_key(optimize));
  EXPECT_NE(result_cache_key(base, 1), result_cache_key(other_seed, 1));

  // Evaluation options DO shape blob validity.
  JobSpec transient = base;
  transient.eval.transient = true;
  EXPECT_NE(warm_cache_key(base), warm_cache_key(transient));
}

TEST(CacheKeys, ResultKeyIgnoresPoolWidthAndCheckpointUnlessArmed) {
  const std::string deck = read_file(example_deck_path());
  JobSpec plain = estimate_spec(deck, 7);
  plain.mode = JobMode::kOptimize;
  JobSpec checkpointed = plain;
  checkpointed.moheco.checkpoint_dir = "checkpoints";

  // A healthy result is the same bytes at any pool width, checkpointed or
  // not: one result-cache row (and one daemon checkpoint directory).
  fail::disarm();
  const std::string key = result_cache_key(plain, 1);
  EXPECT_EQ(result_cache_key(plain, 4), key);
  EXPECT_EQ(result_cache_key(checkpointed, 1), key);
  EXPECT_EQ(result_cache_key(checkpointed, 4), key);

  // Armed prob: decisions interleave across workers and shift with a
  // resume, so both terms join the key.
  fail::arm("seed=1,sparse_factor=prob:0.001");
  const std::string armed = result_cache_key(plain, 1);
  EXPECT_NE(armed, key);
  EXPECT_NE(result_cache_key(plain, 4), armed);
  EXPECT_NE(result_cache_key(checkpointed, 1), armed);
  fail::disarm();
}

// --- submit codec ---------------------------------------------------------

TEST(Protocol, SubmitCodecRoundTrips) {
  JobSpec spec;
  spec.deck_name = "dut.cir";
  spec.deck_text = "* deck\n.end\n";
  spec.mode = JobMode::kOptimize;
  spec.estimate_samples = 1234;
  spec.moheco.seed = 42;
  spec.moheco.population = 12;
  spec.moheco.max_generations = 17;
  spec.moheco.stop_stagnation = 5;
  spec.moheco.use_ocba = false;
  spec.moheco.fixed_budget = 77;
  spec.moheco.use_memetic = false;
  spec.moheco.overlap_generations = false;
  spec.moheco.estimation.mc.sampling = stats::SamplingMethod::kPMC;
  spec.eval.transient = true;
  spec.want_sized_deck = true;

  const std::string line = encode_submit(spec, "tag-1");
  const std::optional<JsonValue> parsed = parse_json(line);
  ASSERT_TRUE(parsed.has_value());
  JobSpec decoded;
  std::string tag;
  std::string error;
  ASSERT_TRUE(decode_submit(*parsed, &decoded, &tag, &error)) << error;
  EXPECT_EQ(tag, "tag-1");
  EXPECT_EQ(decoded.deck_name, spec.deck_name);
  EXPECT_EQ(decoded.deck_text, spec.deck_text);
  EXPECT_EQ(decoded.mode, JobMode::kOptimize);
  EXPECT_EQ(decoded.estimate_samples, 1234);
  EXPECT_EQ(decoded.moheco.seed, 42u);
  EXPECT_EQ(decoded.moheco.population, 12);
  EXPECT_EQ(decoded.moheco.max_generations, 17);
  EXPECT_EQ(decoded.moheco.stop_stagnation, 5);
  EXPECT_FALSE(decoded.moheco.use_ocba);
  EXPECT_EQ(decoded.moheco.fixed_budget, 77);
  EXPECT_FALSE(decoded.moheco.use_memetic);
  EXPECT_FALSE(decoded.moheco.overlap_generations);
  EXPECT_EQ(decoded.moheco.estimation.mc.sampling,
            stats::SamplingMethod::kPMC);
  EXPECT_TRUE(decoded.eval.transient);
  EXPECT_TRUE(decoded.want_sized_deck);
  // The fingerprints agree, so daemon-side cache keys match client intent.
  EXPECT_EQ(result_fingerprint(decoded, 3), result_fingerprint(spec, 3));
  EXPECT_EQ(warm_cache_key(decoded), warm_cache_key(spec));
}

TEST(Protocol, LegacyBackendOptionIsAcceptedAndIgnored) {
  // "backend" selected a linear-solve path and "batch" a sample-batch width,
  // neither of which exists any more: old clients still decode, to exactly
  // the job a submit without the key runs.
  const std::string prefix =
      "{\"op\":\"submit\",\"mode\":\"estimate\",\"deck\":\"x\","
      "\"options\":{\"seed\":5";
  const auto decode = [](const std::string& line) {
    const std::optional<JsonValue> parsed = parse_json(line);
    EXPECT_TRUE(parsed.has_value()) << line;
    JobSpec spec;
    std::string tag;
    std::string error;
    EXPECT_TRUE(decode_submit(*parsed, &spec, &tag, &error)) << error;
    return spec;
  };
  const JobSpec plain = decode(prefix + "}}");
  for (const char* legacy_key : {",\"backend\":\"dense\"", ",\"batch\":8"}) {
    const JobSpec legacy = decode(prefix + legacy_key + "}}");
    EXPECT_EQ(result_fingerprint(legacy, 2), result_fingerprint(plain, 2))
        << legacy_key;
    EXPECT_EQ(warm_cache_key(legacy), warm_cache_key(plain)) << legacy_key;
  }
  // The codec no longer emits either key.
  EXPECT_EQ(encode_submit(plain, "").find("backend"), std::string::npos);
  EXPECT_EQ(encode_submit(plain, "").find("batch"), std::string::npos);
  // A width the old validator refused is still a bad request.
  const std::optional<JsonValue> wide =
      parse_json(prefix + ",\"batch\":65}}");
  ASSERT_TRUE(wide.has_value());
  JobSpec spec;
  std::string tag;
  std::string error;
  EXPECT_FALSE(decode_submit(*wide, &spec, &tag, &error));
  EXPECT_NE(error.find("options.batch"), std::string::npos) << error;
}

TEST(Protocol, SubmitDecodeIsStrict) {
  JobSpec spec;
  std::string tag;
  std::string error;
  const auto fails = [&](const std::string& line) {
    const std::optional<JsonValue> parsed = parse_json(line);
    EXPECT_TRUE(parsed.has_value()) << line;
    error.clear();
    const bool ok = decode_submit(*parsed, &spec, &tag, &error);
    EXPECT_FALSE(ok) << line;
    EXPECT_FALSE(error.empty()) << line;
  };
  fails("{\"op\":\"submit\"}");  // no mode
  fails("{\"op\":\"submit\",\"mode\":\"turbo\",\"deck\":\"x\"}");
  fails("{\"op\":\"submit\",\"mode\":\"estimate\"}");  // no deck
  fails("{\"op\":\"submit\",\"mode\":\"estimate\",\"deck\":\"\"}");
  // Unknown option keys are an error, not silently dropped -- a client
  // typo must not run the job with defaults.
  fails(
      "{\"op\":\"submit\",\"mode\":\"estimate\",\"deck\":\"x\","
      "\"options\":{\"poplation\":8}}");
  error.clear();
  const std::optional<JsonValue> typo = parse_json(
      "{\"op\":\"submit\",\"mode\":\"estimate\",\"deck\":\"x\","
      "\"options\":{\"poplation\":8}}");
  ASSERT_TRUE(typo.has_value());
  decode_submit(*typo, &spec, &tag, &error);
  EXPECT_NE(error.find("poplation"), std::string::npos) << error;
  fails(
      "{\"op\":\"submit\",\"mode\":\"estimate\",\"deck\":\"x\","
      "\"options\":{\"sampling\":\"sobol\"}}");
  fails(
      "{\"op\":\"submit\",\"mode\":\"estimate\",\"deck\":\"x\","
      "\"options\":{\"backend\":\"gpu\"}}");
  fails(
      "{\"op\":\"submit\",\"mode\":\"optimize\",\"deck\":\"x\","
      "\"options\":{\"population\":2}}");
  fails(
      "{\"op\":\"submit\",\"mode\":\"estimate\",\"deck\":\"x\","
      "\"options\":{\"estimate_samples\":0}}");
}

// --- client endpoint grammar ----------------------------------------------

TEST(ServeClientTest, RejectsBadEndpoints) {
  ServeClient client;
  EXPECT_THROW(client.connect(""), Error);
  EXPECT_THROW(client.connect("tcp:"), Error);
  EXPECT_THROW(client.connect("tcp:notaport"), Error);
  EXPECT_THROW(client.connect("tcp:0"), Error);
  EXPECT_THROW(client.connect("tcp:99999"), Error);
  EXPECT_THROW(client.connect("/nonexistent/dir/d.sock"), Error);
  EXPECT_FALSE(client.connected());
}

// --- daemon end-to-end ----------------------------------------------------

TEST(Daemon, ServesBitIdenticalResultsAndCachesRepeats) {
  const std::string deck = read_file(example_deck_path());
  TempDir dir;
  DaemonOptions options;
  options.socket_path = dir.file("d.sock");
  options.threads = 2;
  Daemon daemon(options);
  daemon.start();

  // The reference: the SAME JobRunner code path on a local 1-wide pool.  A
  // result is a function of its inputs alone, so the pool width of the
  // daemon does not show in the bytes.
  ThreadPool local_pool(1);
  JobRunner local(local_pool);
  const JobSpec spec = estimate_spec(deck, 11);
  const JobResult reference = local.run(spec);
  ASSERT_TRUE(reference.ok) << reference.error;

  ServeClient client;
  client.connect(options.socket_path);
  const JsonValue ack = client.request(encode_submit(spec, "t1"));
  EXPECT_TRUE(ack["ok"].as_bool());
  EXPECT_EQ(ack["state"].as_string(), "queued");
  EXPECT_EQ(ack["tag"].as_string(), "t1");
  const JsonValue first = read_terminal(client);
  EXPECT_TRUE(first["ok"].as_bool());
  EXPECT_EQ(first["state"].as_string(), "done");
  EXPECT_FALSE(first["cached"].as_bool(true));
  EXPECT_FALSE(first["warm_hit"].as_bool(true));
  // THE serving contract: the daemon's result bytes are exactly what a
  // local run emits -- raw() relays the embedded object unmodified.
  EXPECT_EQ(first["result"].raw(), reference.json);

  // Exact repeat: answered from the result cache, byte-identical again.
  client.send(encode_submit(spec, "t2"));
  const JsonValue second = read_terminal(client);
  EXPECT_TRUE(second["cached"].as_bool());
  EXPECT_EQ(second["result"].raw(), reference.json);

  // Same deck, new seed: a result-cache miss but a warm-blob near miss.
  client.send(encode_submit(estimate_spec(deck, 12), ""));
  const JsonValue third = read_terminal(client);
  EXPECT_TRUE(third["ok"].as_bool());
  EXPECT_FALSE(third["cached"].as_bool(true));
  EXPECT_TRUE(third["warm_hit"].as_bool());
  EXPECT_GT(third["warm_blobs_imported"].as_int(), 0);
  EXPECT_GT(third["result"]["warm_blobs_imported"].as_int(), 0);

  // Nominal mode with a sized deck rides the same byte-identity contract.
  JobSpec nominal = estimate_spec(deck, 11);
  nominal.mode = JobMode::kNominal;
  nominal.want_sized_deck = true;
  const JobResult local_nominal = local.run(nominal);
  ASSERT_TRUE(local_nominal.ok);
  client.send(encode_submit(nominal, ""));
  const JsonValue fourth = read_terminal(client);
  EXPECT_EQ(fourth["result"].raw(), local_nominal.json);
  EXPECT_EQ(fourth["sized_deck"].as_string(), local_nominal.sized_deck);

  const JsonValue stats = client.request(encode_op("stats"));
  EXPECT_TRUE(stats["ok"].as_bool());
  EXPECT_EQ(stats["submitted"].as_int(), 4);
  EXPECT_EQ(stats["completed"].as_int(), 4);
  EXPECT_EQ(stats["result_hits"].as_int(), 1);
  EXPECT_EQ(stats["result_misses"].as_int(), 3);
  EXPECT_EQ(stats["warm_hit_jobs"].as_int(), 2);
  EXPECT_EQ(stats["workers"].as_int(), 2);
}

TEST(Daemon, ResultAndWarmCachesSurviveARestart) {
  const std::string deck = read_file(example_deck_path());
  TempDir dir;
  DaemonOptions options;
  options.socket_path = dir.file("d.sock");
  options.threads = 1;
  options.cache_path = dir.file("cache");
  const JobSpec spec = estimate_spec(deck, 5);

  std::string first_bytes;
  {
    Daemon daemon(options);
    daemon.start();
    ServeClient client;
    client.connect(options.socket_path);
    client.send(encode_submit(spec, ""));
    const JsonValue first = read_terminal(client);
    ASSERT_TRUE(first["ok"].as_bool());
    EXPECT_FALSE(first["cached"].as_bool(true));
    first_bytes = first["result"].raw();
  }  // daemon dtor: request_stop() + wait()

  Daemon daemon(options);
  daemon.start();
  ServeClient client;
  client.connect(options.socket_path);
  // Exact repeat against the NEW process: served from the disk cache.
  client.send(encode_submit(spec, ""));
  const JsonValue repeat = read_terminal(client);
  EXPECT_TRUE(repeat["cached"].as_bool());
  EXPECT_EQ(repeat["result"].raw(), first_bytes);
  // New seed: the warm-blob snapshot also survived the restart.
  client.send(encode_submit(estimate_spec(deck, 6), ""));
  const JsonValue warm = read_terminal(client);
  EXPECT_TRUE(warm["ok"].as_bool());
  EXPECT_TRUE(warm["warm_hit"].as_bool());
  const JsonValue stats = client.request(encode_op("stats"));
  EXPECT_EQ(stats["result_hits"].as_int(), 1);
  EXPECT_EQ(stats["warm_hit_jobs"].as_int(), 1);
}

TEST(Daemon, BoundedAdmissionRejectsExplicitly) {
  const std::string deck = read_file(example_deck_path());
  TempDir dir;
  DaemonOptions options;
  options.socket_path = dir.file("d.sock");
  options.threads = 2;
  options.queue_depth = 1;
  Daemon daemon(options);
  daemon.start();

  ServeClient worker;
  worker.connect(options.socket_path);
  ServeClient control;
  control.connect(options.socket_path);

  const JsonValue gate_ack = worker.request(encode_submit(blocker_spec(deck), ""));
  const std::uint64_t gate = gate_ack["job"].as_uint();
  ASSERT_TRUE(wait_for_state(control, gate, "running"));

  // Depth 1: one queued job is admitted, the next is rejected -- an
  // explicit terminal answer, never unbounded buffering or a silent drop.
  const JsonValue queued_ack =
      worker.request(encode_submit(estimate_spec(deck, 21), ""));
  EXPECT_TRUE(queued_ack["ok"].as_bool());
  EXPECT_EQ(queued_ack["state"].as_string(), "queued");
  const JsonValue rejected_ack =
      worker.request(encode_submit(estimate_spec(deck, 22), "over"));
  EXPECT_FALSE(rejected_ack["ok"].as_bool());
  EXPECT_EQ(rejected_ack["code"].as_string(), kErrRejected);
  EXPECT_EQ(rejected_ack["tag"].as_string(), "over");

  // Release the gate; the admitted job still completes -- nothing is lost.
  control.request(encode_job_op("cancel", gate));
  const JsonValue gate_terminal = read_terminal(worker);
  EXPECT_EQ(gate_terminal["state"].as_string(), "cancelled");
  const JsonValue queued_terminal = read_terminal(worker);
  EXPECT_EQ(queued_terminal["state"].as_string(), "done");
  const JsonValue stats = control.request(encode_op("stats"));
  EXPECT_EQ(stats["rejected"].as_int(), 1);
  EXPECT_EQ(stats["completed"].as_int(), 1);
  EXPECT_EQ(stats["cancelled"].as_int(), 1);
}

TEST(Daemon, CancelQueuedRunningUnknownAndTerminal) {
  const std::string deck = read_file(example_deck_path());
  TempDir dir;
  DaemonOptions options;
  options.socket_path = dir.file("d.sock");
  options.threads = 2;
  Daemon daemon(options);
  daemon.start();

  ServeClient owner;
  owner.connect(options.socket_path);
  ServeClient control;
  control.connect(options.socket_path);

  const JsonValue gate_ack = owner.request(encode_submit(blocker_spec(deck), ""));
  const std::uint64_t gate = gate_ack["job"].as_uint();
  ASSERT_TRUE(wait_for_state(control, gate, "running"));
  const JsonValue queued_ack =
      owner.request(encode_submit(estimate_spec(deck, 31), "q"));
  const std::uint64_t queued = queued_ack["job"].as_uint();

  // Cancelling a QUEUED job from another connection answers the canceller
  // AND delivers the terminal line to the job's owner.
  const JsonValue cancel1 = control.request(encode_job_op("cancel", queued));
  EXPECT_TRUE(cancel1["ok"].as_bool());
  EXPECT_EQ(cancel1["state"].as_string(), "cancelled");
  const JsonValue queued_terminal = read_terminal(owner);
  EXPECT_FALSE(queued_terminal["ok"].as_bool());
  EXPECT_EQ(queued_terminal["job"].as_uint(), queued);
  EXPECT_EQ(queued_terminal["code"].as_string(), kErrCancelled);
  EXPECT_EQ(queued_terminal["tag"].as_string(), "q");

  // Cancelling a RUNNING job is cooperative: "cancelling" now, the
  // terminal line when the optimizer reaches its next flush boundary.
  const JsonValue cancel2 = control.request(encode_job_op("cancel", gate));
  EXPECT_EQ(cancel2["state"].as_string(), "cancelling");
  const JsonValue gate_terminal = read_terminal(owner);
  EXPECT_EQ(gate_terminal["job"].as_uint(), gate);
  EXPECT_EQ(gate_terminal["state"].as_string(), "cancelled");
  EXPECT_EQ(gate_terminal["code"].as_string(), kErrCancelled);

  // Cancel is idempotent on terminal jobs and explicit about unknown ids.
  ASSERT_TRUE(wait_for_state(control, gate, "cancelled"));
  const JsonValue cancel3 = control.request(encode_job_op("cancel", queued));
  EXPECT_TRUE(cancel3["ok"].as_bool());
  EXPECT_EQ(cancel3["state"].as_string(), "cancelled");
  const JsonValue unknown = control.request(encode_job_op("cancel", 424242));
  EXPECT_FALSE(unknown["ok"].as_bool());
  EXPECT_EQ(unknown["code"].as_string(), kErrUnknownJob);
}

TEST(Daemon, DrainsClientsRoundRobinNotFifo) {
  const std::string deck = read_file(example_deck_path());
  TempDir dir;
  DaemonOptions options;
  options.socket_path = dir.file("d.sock");
  options.threads = 2;
  Daemon daemon(options);
  daemon.start();

  ServeClient alice;
  ServeClient bob;
  ServeClient control;
  alice.connect(options.socket_path);
  bob.connect(options.socket_path);
  control.connect(options.socket_path);

  const JsonValue gate_ack = alice.request(encode_submit(blocker_spec(deck), ""));
  const std::uint64_t gate = gate_ack["job"].as_uint();
  ASSERT_TRUE(wait_for_state(control, gate, "running"));

  // Submission order while the gate holds: a2, a3 (alice floods), then b1.
  const std::uint64_t a2 =
      alice.request(encode_submit(estimate_spec(deck, 101), "")) ["job"].as_uint();
  const std::uint64_t a3 =
      alice.request(encode_submit(estimate_spec(deck, 102), "")) ["job"].as_uint();
  const std::uint64_t b1 =
      bob.request(encode_submit(estimate_spec(deck, 103), "")) ["job"].as_uint();
  control.request(encode_job_op("cancel", gate));  // open the gate

  // Round-robin serves a2, then bob's b1, then a3 -- FIFO would starve bob
  // behind the flood.  By the time alice sees a3's terminal line, b1 is
  // already done (its state went terminal before a3 even started).
  EXPECT_EQ(read_terminal(alice)["job"].as_uint(), gate);
  EXPECT_EQ(read_terminal(alice)["job"].as_uint(), a2);
  EXPECT_EQ(read_terminal(alice)["job"].as_uint(), a3);
  const JsonValue b1_status = control.request(encode_job_op("status", b1));
  EXPECT_EQ(b1_status["state"].as_string(), "done");
  EXPECT_EQ(read_terminal(bob)["job"].as_uint(), b1);
}

TEST(Daemon, AnswersBadRequestsPingAndStatus) {
  TempDir dir;
  DaemonOptions options;
  options.socket_path = dir.file("d.sock");
  options.threads = 1;
  Daemon daemon(options);
  daemon.start();

  ServeClient client;
  client.connect(options.socket_path);
  const JsonValue garbage = client.request("this is not json");
  EXPECT_FALSE(garbage["ok"].as_bool(true));
  EXPECT_EQ(garbage["code"].as_string(), kErrBadRequest);
  const JsonValue unknown_op = client.request(encode_op("frobnicate"));
  EXPECT_EQ(unknown_op["code"].as_string(), kErrBadRequest);
  const JsonValue bad_submit = client.request(
      "{\"op\":\"submit\",\"mode\":\"estimate\",\"deck\":\"x\","
      "\"options\":{\"bogus\":1}}");
  EXPECT_EQ(bad_submit["code"].as_string(), kErrBadRequest);
  EXPECT_NE(bad_submit["error"].as_string().find("bogus"), std::string::npos);

  const JsonValue pong = client.request(encode_op("ping"));
  EXPECT_TRUE(pong["ok"].as_bool());
  EXPECT_EQ(pong["server"].as_string(), "moheco_d");
  const JsonValue status = client.request(encode_job_op("status", 7));
  EXPECT_EQ(status["code"].as_string(), kErrUnknownJob);

  const JsonValue stats = client.request(encode_op("stats"));
  EXPECT_EQ(stats["bad_requests"].as_int(), 3);
  EXPECT_EQ(stats["submitted"].as_int(), 0);
}

TEST(Daemon, ListensOnLoopbackTcpWithAnEphemeralPort) {
  DaemonOptions options;
  options.tcp_port = 0;  // ephemeral: the daemon reports what it got
  options.threads = 1;
  Daemon daemon(options);
  daemon.start();
  ASSERT_GT(daemon.tcp_port(), 0);

  ServeClient client;
  client.connect("tcp:" + std::to_string(daemon.tcp_port()));
  EXPECT_TRUE(client.request(encode_op("ping"))["ok"].as_bool());
  // The bare-port and host:port spellings reach the same listener.
  ServeClient bare;
  bare.connect(std::to_string(daemon.tcp_port()));
  EXPECT_TRUE(bare.request(encode_op("ping"))["ok"].as_bool());
  ServeClient hostport;
  hostport.connect("127.0.0.1:" + std::to_string(daemon.tcp_port()));
  EXPECT_TRUE(hostport.request(encode_op("ping"))["ok"].as_bool());
}

TEST(Daemon, ShutdownOpCancelsQueuedJobsAndStops) {
  const std::string deck = read_file(example_deck_path());
  TempDir dir;
  DaemonOptions options;
  options.socket_path = dir.file("d.sock");
  options.threads = 2;
  Daemon daemon(options);
  daemon.start();

  ServeClient owner;
  owner.connect(options.socket_path);
  ServeClient control;
  control.connect(options.socket_path);
  const JsonValue gate_ack = owner.request(encode_submit(blocker_spec(deck), ""));
  const std::uint64_t gate = gate_ack["job"].as_uint();
  ASSERT_TRUE(wait_for_state(control, gate, "running"));
  const std::uint64_t queued =
      owner.request(encode_submit(estimate_spec(deck, 41), "")) ["job"].as_uint();

  const JsonValue bye = control.request(encode_op("shutdown"));
  EXPECT_TRUE(bye["ok"].as_bool());

  // The queued job dies with a terminal line (no silent drop), the running
  // one is cancelled cooperatively, and wait() returns.
  JsonValue first = read_terminal(owner);
  JsonValue second = read_terminal(owner);
  if (first["job"].as_uint() != queued) std::swap(first, second);
  EXPECT_EQ(first["job"].as_uint(), queued);
  EXPECT_EQ(first["code"].as_string(), kErrCancelled);
  EXPECT_EQ(second["job"].as_uint(), gate);
  EXPECT_EQ(second["state"].as_string(), "cancelled");

  daemon.wait();
  EXPECT_FALSE(daemon.running());
  // The socket file is gone; late submits cannot reach a half-dead daemon.
  EXPECT_NE(::access(options.socket_path.c_str(), F_OK), 0);
}

// --- observability: op=stats snapshot + build identity in ping ----------

TEST(Daemon, StatsExposesObservabilitySnapshot) {
  const std::string deck = read_file(example_deck_path());
  TempDir dir;
  DaemonOptions options;
  options.socket_path = dir.file("d.sock");
  options.threads = 1;
  Daemon daemon(options);
  // The obs registry is process-global and monotonic, so counter
  // assertions compare against a snapshot taken before this daemon runs.
  const auto counter_before = [](const char* name) {
    return obs::registry().counter(name).value();
  };
  const std::uint64_t jobs_before = counter_before("serve.jobs_completed");
  const std::uint64_t hits_before = counter_before("serve.result_hits");
  const std::uint64_t misses_before = counter_before("serve.result_misses");
  const std::uint64_t requests_before = counter_before("serve.requests");
  daemon.start();

  ServeClient client;
  client.connect(options.socket_path);
  const JobSpec spec = estimate_spec(deck, 31);
  client.send(encode_submit(spec, ""));
  EXPECT_EQ(read_terminal(client)["state"].as_string(), "done");
  client.send(encode_submit(spec, ""));  // exact repeat: result-cache hit
  EXPECT_TRUE(read_terminal(client)["cached"].as_bool());

  const JsonValue stats = client.request(encode_op("stats"));
  ASSERT_TRUE(stats["ok"].as_bool());
  // Legacy counters keep their meaning...
  EXPECT_EQ(stats["submitted"].as_int(), 2);
  EXPECT_EQ(stats["completed"].as_int(), 2);
  EXPECT_EQ(stats["result_hits"].as_int(), 1);
  EXPECT_EQ(stats["result_misses"].as_int(), 1);
  // ...and the observability extension rides alongside them.
  EXPECT_GE(stats["uptime_ms"].as_int(), 0);
  EXPECT_DOUBLE_EQ(stats["result_hit_rate"].as_number(-1.0), 0.5);
  ASSERT_TRUE(stats["build"].is_object());
  EXPECT_EQ(stats["build"]["version"].as_string(), obs::version());

  // The embedded registry snapshot's serve.* counters agree with the
  // daemon's own accounting for the traffic this test generated.
  const JsonValue& metrics = stats["metrics"];
  ASSERT_TRUE(metrics.is_object());
  const JsonValue& counters = metrics["counters"];
  ASSERT_TRUE(counters.is_object());
  EXPECT_EQ(counters["serve.jobs_completed"].as_uint() - jobs_before, 2u);
  EXPECT_EQ(counters["serve.result_hits"].as_uint() - hits_before, 1u);
  EXPECT_EQ(counters["serve.result_misses"].as_uint() - misses_before, 1u);
  // submit x2 + stats itself = at least 3 requests from this client.
  EXPECT_GE(counters["serve.requests"].as_uint() - requests_before, 3u);
  // The daemon arms timing at start(), so per-op latency histograms and
  // the job-duration histogram have samples.
  const JsonValue& histograms = metrics["histograms"];
  ASSERT_TRUE(histograms.is_object());
  EXPECT_GT(histograms["serve.op_us"]["count"].as_int(), 0);
  EXPECT_GT(histograms["serve.job_us"]["count"].as_int(), 0);

  // op=ping carries the same build identity object.
  const JsonValue pong = client.request(encode_op("ping"));
  ASSERT_TRUE(pong["build"].is_object());
  EXPECT_EQ(pong["build"]["version"].as_string(), obs::version());
}

}  // namespace
}  // namespace moheco::serve
