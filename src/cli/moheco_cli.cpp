// moheco_cli: the deck-driven command-line front end.
//
// Loads a SPICE deck with the MOHECO extension cards (see
// src/spice/deck_parser.hpp for the dialect) and either
//   - runs the MOHECO yield optimizer on it (default),
//   - estimates the MC yield at the deck's nominal sizing (--estimate), or
//   - prints the nominal-point performance (--nominal),
// then reports results as text, optionally as a JSON object (--json=) and
// as a sized deck at the chosen design (--deck-out=).  --warm-cache=DIR
// persists the evaluation scheduler's warm-start blob store across
// invocations through the ResultsCache, so repeated runs over recurring
// sizings skip their nominal re-measurements.
//
// Jobs execute through serve::JobRunner -- the same code path the moheco_d
// daemon uses -- so a local run and a daemon run of the same (deck, seed,
// options) produce bit-identical result JSON.  --connect=ENDPOINT submits
// the job to a running moheco_d instead of computing locally (--detach
// returns after the ack; --op=status|cancel|stats|ping|shutdown speaks the
// control ops).  See docs/protocol.md.
//
// Exit codes: 0 success, 1 runtime failure (bad deck, daemon unreachable,
// job failed), 2 usage error (unknown/malformed arguments).
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/failpoint.hpp"
#include "src/common/json.hpp"
#include "src/common/log.hpp"
#include "src/common/results_cache.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/client.hpp"
#include "src/serve/job_runner.hpp"
#include "src/serve/protocol.hpp"
#include "src/spice/deck_parser.hpp"
#include "src/stats/samplers.hpp"

namespace {

using namespace moheco;

struct CliOptions {
  std::string deck_path;
  serve::JobMode mode = serve::JobMode::kOptimize;
  long long estimate_samples = 2000;
  core::MohecoOptions moheco;
  circuits::EvalOptions eval;
  std::string json_path;
  std::string deck_out_path;
  std::string warm_cache_dir;
  bool quiet = false;
  /// Fail-point spec from --faults (armed during parse; recorded so main
  /// knows not to also consult MOHECO_FAULTS).
  std::string faults;
  // client mode
  std::string connect;
  bool detach = false;
  std::string op;  ///< empty = run/submit a job
  std::uint64_t job_id = 0;
  long long deadline_ms = 0;   ///< daemon-enforced job deadline
  int retries = 0;             ///< resubmit attempts after connection loss
  int connect_timeout_ms = 0;  ///< 0 = block
  int read_timeout_ms = 0;     ///< 0 = block
  // observability (docs/observability.md)
  std::string trace_path;    ///< Chrome trace-event JSON written at exit
  std::string metrics_path;  ///< metrics registry snapshot written at exit
};

void print_usage() {
  std::fprintf(stderr,
               "usage: moheco_cli DECK.cir [options]\n"
               "       moheco_cli --connect=ENDPOINT --op=OP [--job=N]\n"
               "\n"
               "modes (default: run the MOHECO yield optimizer):\n"
               "  --estimate[=N]        MC yield estimate at the nominal .param sizing\n"
               "                        (default N=2000 samples)\n"
               "  --nominal             print the nominal-point performance and exit\n"
               "\n"
               "optimizer options (mirroring core::MohecoOptions):\n"
               "  --population=N --max-generations=N --stop-stagnation=N\n"
               "  --seed=S --threads=N --sampling=lhs|pmc\n"
               "  --no-ocba [--fixed-budget=N] --no-memetic\n"
               "\n"
               "evaluation:\n"
               "  --transient           step-bench transient per sample (deck needs\n"
               "                        a .probe step card)\n"
               "\n"
               "outputs:\n"
               "  --json=PATH           machine-readable results\n"
               "  --deck-out=PATH       sized deck at the reported design\n"
               "  --warm-cache=DIR      persist warm-start blobs across runs\n"
               "                        (local runs; the daemon has its own cache)\n"
               "  --quiet               suppress the text report\n"
               "\n"
               "fault containment (see docs/faults.md):\n"
               "  --checkpoint=DIR      crash-safe per-generation optimizer\n"
               "                        checkpoints (local optimize runs); the\n"
               "                        result equals the run without it (with\n"
               "                        --faults too, at --threads=1)\n"
               "  --resume              resume from --checkpoint=DIR's state;\n"
               "                        bit-identical to the uninterrupted run\n"
               "                        at any --threads (no faults armed)\n"
               "  --faults=SPEC         arm deterministic fail points, e.g.\n"
               "                        seed=7,sparse_factor=prob:0.05 (also read\n"
               "                        from MOHECO_FAULTS when the flag is absent)\n"
               "\n"
               "serving (moheco_d, see docs/protocol.md):\n"
               "  --connect=ENDPOINT    submit to a daemon instead of running locally\n"
               "                        (unix:PATH, a socket path, tcp:PORT, HOST:PORT)\n"
               "  --detach              return after the submit ack (prints the ack\n"
               "                        JSON with the job id; the job keeps running)\n"
               "  --op=NAME             control op: status|cancel|stats|ping|shutdown\n"
               "  --job=N               job id for --op=status / --op=cancel\n"
               "  --deadline-ms=N       daemon-enforced wall-clock job deadline\n"
               "                        (expired jobs fail with code 'deadline')\n"
               "  --retries=N           reconnect + resubmit up to N times after a\n"
               "                        connection loss or timeout (exponential\n"
               "                        backoff; idempotent via the daemon's\n"
               "                        result cache)\n"
               "  --connect-timeout-ms=N / --read-timeout-ms=N\n"
               "                        bound the daemon handshake / each response\n"
               "                        wait (default 0 = block forever)\n"
               "\n"
               "observability (docs/observability.md):\n"
               "  --trace=FILE          arm span tracing; write the Chrome\n"
               "                        trace-event JSON to FILE at exit (open\n"
               "                        it in Perfetto or chrome://tracing)\n"
               "  --metrics=FILE        write the metrics registry snapshot\n"
               "                        (counters/gauges/histograms) to FILE at exit\n"
               "  --log-level=LEVEL     debug|info|warn|error|off (default warn;\n"
               "                        MOHECO_LOG also works)\n"
               "  --version             print build identity (version, compiler)\n"
               "                        and exit\n");
}

bool parse_long(const std::string& text, long long* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  *out = std::strtoll(begin, &end, 10);
  return end != begin && *end == '\0' && errno != ERANGE;
}

long long need_int(const std::string& arg, const std::string& value) {
  long long v = 0;
  if (!parse_long(value, &v)) {
    throw InvalidArgument("moheco_cli: bad integer in '" + arg + "'");
  }
  return v;
}

/// need_int for flags stored as int (population, threads, ...): a value
/// outside int range must error, not silently truncate.
int need_int32(const std::string& arg, const std::string& value) {
  const long long v = need_int(arg, value);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw InvalidArgument("moheco_cli: value out of range in '" + arg + "'");
  }
  return static_cast<int>(v);
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (arg == "--help" || arg == "-h") {
      print_usage();
      std::exit(0);
    } else if (arg == "--version") {
      std::printf("moheco_cli %s\n%s\n", obs::version(),
                  obs::build_json().c_str());
      std::exit(0);
    } else if (key == "--trace") {
      if (value.empty()) {
        throw InvalidArgument("moheco_cli: missing file in '" + arg + "'");
      }
      cli.trace_path = value;
    } else if (key == "--metrics") {
      if (value.empty()) {
        throw InvalidArgument("moheco_cli: missing file in '" + arg + "'");
      }
      cli.metrics_path = value;
    } else if (key == "--log-level") {
      set_log_level(parse_log_level(value));
    } else if (key == "--estimate") {
      cli.mode = serve::JobMode::kEstimate;
      if (!value.empty()) cli.estimate_samples = need_int(arg, value);
    } else if (arg == "--nominal") {
      cli.mode = serve::JobMode::kNominal;
    } else if (key == "--population") {
      cli.moheco.population = need_int32(arg, value);
      // Range errors are usage errors (exit 2), not optimizer failures:
      // catch them here where the message can quote the flag.
      if (cli.moheco.population < 4) {
        throw InvalidArgument("moheco_cli: population must be at least 4 in '" +
                              arg + "'");
      }
    } else if (key == "--max-generations") {
      cli.moheco.max_generations = need_int32(arg, value);
      if (cli.moheco.max_generations < 1) {
        throw InvalidArgument("moheco_cli: generations must be positive in '" +
                              arg + "'");
      }
    } else if (key == "--stop-stagnation") {
      cli.moheco.stop_stagnation = need_int32(arg, value);
    } else if (key == "--seed") {
      cli.moheco.seed = static_cast<std::uint64_t>(need_int(arg, value));
    } else if (key == "--threads") {
      cli.moheco.threads = need_int32(arg, value);
    } else if (key == "--fixed-budget") {
      cli.moheco.fixed_budget = need_int32(arg, value);
    } else if (arg == "--no-ocba") {
      cli.moheco.use_ocba = false;
    } else if (arg == "--no-memetic") {
      cli.moheco.use_memetic = false;
    } else if (key == "--sampling") {
      try {
        cli.moheco.estimation.mc.sampling = stats::parse_sampling_method(value);
      } catch (const Error&) {
        throw InvalidArgument("moheco_cli: bad value in '" + arg +
                              "' (want lhs or pmc)");
      }
    } else if (arg == "--transient") {
      cli.eval.transient = true;
    } else if (key == "--json") {
      cli.json_path = value;
    } else if (key == "--deck-out") {
      cli.deck_out_path = value;
    } else if (key == "--warm-cache") {
      cli.warm_cache_dir = value;
    } else if (key == "--checkpoint") {
      if (value.empty()) {
        throw InvalidArgument("moheco_cli: missing directory in '" + arg + "'");
      }
      cli.moheco.checkpoint_dir = value;
    } else if (arg == "--resume") {
      cli.moheco.resume = true;
    } else if (key == "--faults") {
      // Armed here so grammar errors surface as usage errors (exit 2).
      fail::arm(value);
      cli.faults = value;
    } else if (key == "--deadline-ms") {
      cli.deadline_ms = need_int(arg, value);
      if (cli.deadline_ms < 0) {
        throw InvalidArgument("moheco_cli: deadline must be non-negative in '" +
                              arg + "'");
      }
    } else if (key == "--retries") {
      cli.retries = need_int32(arg, value);
      if (cli.retries < 0) {
        throw InvalidArgument("moheco_cli: retries must be non-negative in '" +
                              arg + "'");
      }
    } else if (key == "--connect-timeout-ms") {
      cli.connect_timeout_ms = need_int32(arg, value);
      if (cli.connect_timeout_ms < 0) {
        throw InvalidArgument("moheco_cli: timeout must be non-negative in '" +
                              arg + "'");
      }
    } else if (key == "--read-timeout-ms") {
      cli.read_timeout_ms = need_int32(arg, value);
      if (cli.read_timeout_ms < 0) {
        throw InvalidArgument("moheco_cli: timeout must be non-negative in '" +
                              arg + "'");
      }
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else if (key == "--connect") {
      if (value.empty()) {
        throw InvalidArgument("moheco_cli: missing endpoint in '" + arg + "'");
      }
      cli.connect = value;
    } else if (arg == "--detach") {
      cli.detach = true;
    } else if (key == "--op") {
      if (value != "status" && value != "cancel" && value != "stats" &&
          value != "ping" && value != "shutdown") {
        throw InvalidArgument("moheco_cli: unknown op in '" + arg +
                              "' (want status|cancel|stats|ping|shutdown)");
      }
      cli.op = value;
    } else if (key == "--job") {
      cli.job_id = static_cast<std::uint64_t>(need_int(arg, value));
    } else if (!arg.empty() && arg[0] == '-') {
      throw InvalidArgument("moheco_cli: unknown option '" + arg +
                            "' (see --help)");
    } else if (cli.deck_path.empty()) {
      cli.deck_path = arg;
    } else {
      throw InvalidArgument("moheco_cli: more than one deck given");
    }
  }
  if (!cli.op.empty()) {
    if (cli.connect.empty()) {
      throw InvalidArgument("moheco_cli: '--op' requires --connect=ENDPOINT");
    }
    if ((cli.op == "status" || cli.op == "cancel") && cli.job_id == 0) {
      throw InvalidArgument("moheco_cli: '--op=" + cli.op +
                            "' requires --job=N");
    }
    return cli;  // control ops take no deck
  }
  if (cli.job_id != 0) {
    throw InvalidArgument("moheco_cli: '--job' requires --op=status|cancel");
  }
  if (cli.detach && cli.connect.empty()) {
    throw InvalidArgument("moheco_cli: '--detach' requires --connect");
  }
  if (cli.moheco.resume && cli.moheco.checkpoint_dir.empty()) {
    throw InvalidArgument("moheco_cli: '--resume' requires --checkpoint=DIR");
  }
  if (!cli.moheco.checkpoint_dir.empty() && !cli.connect.empty()) {
    throw InvalidArgument(
        "moheco_cli: '--checkpoint' is a local-run option (the daemon "
        "checkpoints with its own --checkpoint flag)");
  }
  if (cli.deadline_ms > 0 && cli.connect.empty()) {
    throw InvalidArgument("moheco_cli: '--deadline-ms' requires --connect "
                          "(the daemon enforces deadlines)");
  }
  if (cli.deck_path.empty()) {
    print_usage();
    throw InvalidArgument("moheco_cli: no deck file given");
  }
  return cli;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

serve::JobSpec make_spec(const CliOptions& cli) {
  serve::JobSpec spec;
  spec.deck_name = cli.deck_path;
  {
    std::ifstream in(cli.deck_path);
    if (!in) {
      throw spice::DeckError(cli.deck_path, 0, 0, "cannot open deck file");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    spec.deck_text = buffer.str();
  }
  spec.mode = cli.mode;
  spec.estimate_samples = cli.estimate_samples;
  spec.moheco = cli.moheco;
  spec.eval = cli.eval;
  spec.want_sized_deck = !cli.deck_out_path.empty();
  spec.deadline_ms = cli.deadline_ms;
  return spec;
}

/// Renders the human-readable report from the result JSON (the one source
/// of truth both the local path and --connect produce).
void print_report(const JsonValue& r) {
  std::printf("deck:    %s (\"%s\")\n", r["deck"].as_string().c_str(),
              r["title"].as_string().c_str());
  std::printf("problem: %lld transistors, %lld design variables, %lld process "
              "variables, %lld specs (+%lld transient)\n",
              r["num_transistors"].as_int(), r["num_design_vars"].as_int(),
              r["noise_dim"].as_int(), r["num_specs"].as_int(),
              r["num_transient_specs"].as_int());
  const std::string& mode = r["mode"].as_string();
  if (mode == "nominal") {
    const JsonValue& perf = r["nominal_performance"];
    std::printf("nominal: A0 = %.2f dB, GBW = %.3f MHz, PM = %.1f deg, "
                "swing = %.2f V, power = %.3f mW, offset = %.2f mV\n",
                perf["a0_db"].as_number(), perf["gbw"].as_number() / 1e6,
                perf["pm_deg"].as_number(), perf["swing"].as_number(),
                perf["power"].as_number() * 1e3,
                perf["offset"].as_number() * 1e3);
    std::printf("specs %s at the nominal point\n",
                r["nominal_pass"].as_bool() ? "PASS" : "FAIL");
  } else if (mode == "estimate") {
    std::printf("estimated yield at the nominal sizing: %.2f%% "
                "(%lld samples, seed %llu)\n",
                100.0 * r["yield"].as_number(), r["samples"].as_int(),
                static_cast<unsigned long long>(r["seed"].as_uint()));
  } else {
    std::printf("finished after %lld generations, %lld simulations\n",
                r["generations"].as_int(), r["total_simulations"].as_int());
    if (r["feasible"].as_bool()) {
      std::printf("best yield: %.2f%% (%lld MC samples)\n",
                  100.0 * r["best_yield"].as_number(),
                  r["best_samples"].as_int());
    } else {
      std::printf("no nominally feasible design found (violation %.4f)\n",
                  r["violation"].as_number());
    }
    const JsonValue& design = r["design"];
    for (const std::string& name : design.member_names()) {
      std::printf("  %-12s = %.6g\n", name.c_str(),
                  design[name].as_number());
    }
  }
}

/// Shared tail of both paths: text report + --json / --deck-out outputs.
/// `result_json` is the exact result-object bytes (never re-serialized).
int emit_outputs(const CliOptions& cli, const std::string& result_json,
                 const std::string& sized_deck) {
  if (!cli.quiet) {
    if (const std::optional<JsonValue> parsed = parse_json(result_json)) {
      print_report(*parsed);
    }
  }
  if (!cli.deck_out_path.empty()) {
    if (!write_file(cli.deck_out_path, sized_deck)) {
      std::fprintf(stderr, "moheco_cli: cannot write %s\n",
                   cli.deck_out_path.c_str());
      return 1;
    }
    if (!cli.quiet) {
      std::printf("sized deck written to %s\n", cli.deck_out_path.c_str());
    }
  }
  if (!cli.json_path.empty()) {
    if (!write_file(cli.json_path, result_json + "\n")) {
      std::fprintf(stderr, "moheco_cli: cannot write %s\n",
                   cli.json_path.c_str());
      return 1;
    }
  }
  return 0;
}

int run_local(const CliOptions& cli) {
  const serve::JobSpec spec = make_spec(cli);
  ThreadPool pool(cli.moheco.threads);
  serve::JobRunner runner(pool, cli.moheco.scheduler);

  // Warm-start persistence: keyed on deck CONTENT (serve::warm_cache_key),
  // so the same deck hits from any path and an edited deck misses.
  const std::string cache_key = serve::warm_cache_key(spec);
  std::optional<ResultMap> warm;
  if (!cli.warm_cache_dir.empty()) {
    warm = ResultsCache(cli.warm_cache_dir).load(cache_key);
  }
  const serve::JobResult result = runner.run(
      spec, warm && !warm->empty() ? &*warm : nullptr, /*cancel=*/nullptr);
  if (!result.ok) {
    std::fprintf(stderr, "moheco_cli: %s\n", result.error.c_str());
    return 1;
  }
  if (!cli.warm_cache_dir.empty() && !result.warm_blobs.empty()) {
    ResultsCache(cli.warm_cache_dir).store(cache_key, result.warm_blobs);
  }
  return emit_outputs(cli, result.json, result.sized_deck);
}

serve::ClientOptions client_options(const CliOptions& cli) {
  serve::ClientOptions opts;
  opts.connect_timeout_ms = cli.connect_timeout_ms;
  opts.read_timeout_ms = cli.read_timeout_ms;
  return opts;
}

int run_control_op(const CliOptions& cli) {
  serve::ServeClient client(client_options(cli));
  client.connect(cli.connect);
  const std::string line =
      (cli.op == "status" || cli.op == "cancel")
          ? serve::encode_job_op(cli.op, cli.job_id)
          : serve::encode_op(cli.op);
  const JsonValue response = client.request(line);
  std::printf("%s\n", response.raw().c_str());
  if (!response["ok"].as_bool()) {
    std::fprintf(stderr, "moheco_cli: %s: %s\n",
                 response["code"].as_string("error").c_str(),
                 response["error"].as_string().c_str());
    return 1;
  }
  return 0;
}

/// One submit-and-wait attempt; throws moheco::Error on connection loss or
/// timeout (the retryable conditions), returns an exit code otherwise.
int connect_attempt(const CliOptions& cli, const serve::JobSpec& spec) {
  serve::ServeClient client(client_options(cli));
  client.connect(cli.connect);
  const JsonValue ack = client.request(serve::encode_submit(spec, ""));
  if (!ack["ok"].as_bool()) {
    if (ack["code"].as_string() == serve::kErrRejected) {
      // Queue full is transient by definition; let the retry loop back off.
      throw Error("daemon at " + cli.connect +
                  " rejected the job: " + ack["error"].as_string());
    }
    std::fprintf(stderr, "moheco_cli: submit %s: %s\n",
                 ack["code"].as_string("failed").c_str(),
                 ack["error"].as_string().c_str());
    return 1;
  }
  if (cli.detach) {
    // The ack (with the job id) is the deliverable; the job keeps running
    // in the daemon and its result lands in the daemon's caches.
    std::printf("%s\n", ack.raw().c_str());
    return 0;
  }
  if (!cli.quiet) {
    std::printf("submitted job %llu to %s, waiting...\n",
                static_cast<unsigned long long>(ack["job"].as_uint()),
                cli.connect.c_str());
  }
  // Block until the terminal line (acks of other ops cannot appear: this
  // connection only submitted one job).
  std::optional<JsonValue> terminal;
  while (std::optional<std::string> line = client.read_line()) {
    std::optional<JsonValue> parsed = parse_json(*line);
    if (parsed && (*parsed)["op"].as_string() == "result") {
      terminal = std::move(parsed);
      break;
    }
  }
  if (!terminal) {
    if (client.timed_out()) {
      throw Error("daemon at " + cli.connect + " went silent for more than " +
                  std::to_string(cli.read_timeout_ms) +
                  " ms while the job was running");
    }
    throw Error("daemon at " + cli.connect +
                " closed the connection before the job finished");
  }
  const JsonValue& t = *terminal;
  if (!t["ok"].as_bool()) {
    std::fprintf(stderr, "moheco_cli: job %s: %s\n",
                 t["state"].as_string("failed").c_str(),
                 t["error"].as_string().c_str());
    return 1;
  }
  if (!cli.quiet && t["cached"].as_bool()) {
    std::printf("(served from the daemon's result cache)\n");
  }
  // raw() of the nested result object: the daemon's exact bytes, so
  // --json output is bit-identical to a local run.
  return emit_outputs(cli, t["result"].raw(), t["sized_deck"].as_string());
}

int run_connect(const CliOptions& cli) {
  if (!cli.warm_cache_dir.empty()) {
    std::fprintf(stderr,
                 "moheco_cli: note: --warm-cache is ignored with --connect "
                 "(the daemon keeps its own warm cache)\n");
  }
  const serve::JobSpec spec = make_spec(cli);
  // Reconnect + resubmit loop.  Resubmitting the SAME spec is idempotent
  // from the client's point of view: the daemon's result cache is keyed by
  // deck content + options, so a job that completed while we were
  // disconnected answers from cache; at worst a still-running duplicate
  // recomputes the same deterministic result.
  std::string last_error;
  for (int attempt = 0; attempt <= cli.retries; ++attempt) {
    if (attempt > 0) {
      long long backoff_ms = 200LL << (attempt - 1);  // 200, 400, 800, ...
      if (backoff_ms > 5000) backoff_ms = 5000;
      std::fprintf(stderr, "moheco_cli: %s; retry %d/%d in %lld ms\n",
                   last_error.c_str(), attempt, cli.retries, backoff_ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    try {
      return connect_attempt(cli, spec);
    } catch (const Error& e) {
      last_error = e.what();
    }
  }
  throw Error(last_error + " (after " + std::to_string(cli.retries + 1) +
              " attempt(s))");
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  try {
    cli = parse_cli(argc, argv);
  } catch (const moheco::Error& e) {
    // Usage errors (unknown flag, malformed value) exit 2, distinct from
    // runtime failures (1), so scripts can tell them apart.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  // Observability is armed before any work so spans/timers cover the whole
  // run, and the artifacts are written on every exit path below (a failed
  // run's trace is exactly the one worth looking at).
  if (!cli.trace_path.empty()) moheco::obs::set_trace_enabled(true);
  if (!cli.trace_path.empty() || !cli.metrics_path.empty()) {
    moheco::obs::set_timing_enabled(true);
  }
  const auto write_observability = [&cli] {
    if (!cli.trace_path.empty() && !moheco::obs::write_trace(cli.trace_path)) {
      std::fprintf(stderr, "moheco_cli: cannot write %s\n",
                   cli.trace_path.c_str());
    }
    if (!cli.metrics_path.empty() &&
        !moheco::obs::write_metrics_json(cli.metrics_path)) {
      std::fprintf(stderr, "moheco_cli: cannot write %s\n",
                   cli.metrics_path.c_str());
    }
  };
  try {
    // --faults wins over the environment; with neither, stay disarmed.
    if (cli.faults.empty()) moheco::fail::arm_from_env();
    int code = 0;
    if (!cli.op.empty()) {
      code = run_control_op(cli);
    } else if (!cli.connect.empty()) {
      code = run_connect(cli);
    } else {
      code = run_local(cli);
    }
    write_observability();
    return code;
  } catch (const moheco::Error& e) {
    std::fprintf(stderr, "moheco_cli: %s\n", e.what());
    write_observability();
    return 1;
  }
}
