// moheco_d: the yield-optimization service daemon.
//
// Listens on a Unix-domain socket (--socket) and/or TCP on 127.0.0.1
// (--tcp), accepts the line-delimited JSON protocol of docs/protocol.md and
// runs every submitted deck job on ONE shared thread pool + evaluation
// scheduler, with a deck-content-hash result cache and warm-start blob
// cache in front (optionally persisted across restarts with --cache).
// Submit jobs with `moheco_cli DECK --connect=ENDPOINT`.
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "src/circuits/evaluator.hpp"
#include "src/common/error.hpp"
#include "src/common/failpoint.hpp"
#include "src/common/log.hpp"
#include "src/obs/build_info.hpp"
#include "src/serve/daemon.hpp"

namespace {

using namespace moheco;

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

void print_usage() {
  std::fprintf(stderr,
               "usage: moheco_d [options]\n"
               "\n"
               "listeners (at least one required):\n"
               "  --socket=PATH         Unix-domain socket (stale file is replaced)\n"
               "  --tcp=PORT            TCP on 127.0.0.1 (0 picks an ephemeral port,\n"
               "                        printed on startup)\n"
               "\n"
               "service:\n"
               "  --threads=N           shared evaluation pool width (default: hardware)\n"
               "  --queue-depth=N       admission bound on queued jobs (default 64);\n"
               "                        submits beyond it are rejected explicitly\n"
               "  --cache=PATH          persist result/warm caches across restarts\n"
               "                        (ResultsCache path)\n"
               "  --result-cache=N      in-memory result entries (default 256)\n"
               "  --warm-cache=N        in-memory warm-blob entries (default 64)\n"
               "  --deadline-ms=N       wall-clock deadline for jobs that do not set\n"
               "                        options.deadline_ms themselves (default 0 =\n"
               "                        none); expired jobs fail with code 'deadline'\n"
               "  --checkpoint=DIR      per-job crash-safe optimizer checkpoints; a\n"
               "                        daemon restarted mid-job resumes the job's\n"
               "                        optimize run from its last generation\n"
               "  --faults=SPEC         arm deterministic fail points (docs/faults.md;\n"
               "                        also read from MOHECO_FAULTS)\n"
               "  --log-level=LEVEL     debug|info|warn|error|off (default warn;\n"
               "                        --log= is an accepted alias)\n"
               "\n"
               "observability (docs/observability.md):\n"
               "  --trace=FILE          arm span tracing; write the Chrome trace-event\n"
               "                        JSON to FILE when the daemon stops\n"
               "  --metrics=FILE        dump the metrics registry snapshot to FILE\n"
               "                        periodically (atomic rename) and at shutdown\n"
               "  --metrics-interval-ms=N\n"
               "                        dump period for --metrics (default 5000)\n"
               "  --version             print build identity and exit\n");
}

bool parse_int_flag(const std::string& value, int* out) {
  if (value.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  serve::DaemonOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    int parsed = 0;
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (key == "--socket") {
      options.socket_path = value;
    } else if (key == "--tcp") {
      if (!parse_int_flag(value, &parsed) || parsed < 0 || parsed > 65535) {
        std::fprintf(stderr, "moheco_d: bad port in '%s'\n", arg.c_str());
        return 2;
      }
      options.tcp_port = parsed;
    } else if (key == "--threads") {
      if (!parse_int_flag(value, &parsed)) {
        std::fprintf(stderr, "moheco_d: bad integer in '%s'\n", arg.c_str());
        return 2;
      }
      options.threads = parsed;
    } else if (key == "--queue-depth") {
      if (!parse_int_flag(value, &parsed) || parsed < 1) {
        std::fprintf(stderr, "moheco_d: bad queue depth in '%s'\n",
                     arg.c_str());
        return 2;
      }
      options.queue_depth = static_cast<std::size_t>(parsed);
    } else if (key == "--cache") {
      options.cache_path = value;
    } else if (key == "--result-cache") {
      if (!parse_int_flag(value, &parsed) || parsed < 1) {
        std::fprintf(stderr, "moheco_d: bad entry count in '%s'\n",
                     arg.c_str());
        return 2;
      }
      options.result_cache_entries = static_cast<std::size_t>(parsed);
    } else if (key == "--warm-cache") {
      if (!parse_int_flag(value, &parsed) || parsed < 1) {
        std::fprintf(stderr, "moheco_d: bad entry count in '%s'\n",
                     arg.c_str());
        return 2;
      }
      options.warm_cache_entries = static_cast<std::size_t>(parsed);
    } else if (key == "--deadline-ms") {
      if (!parse_int_flag(value, &parsed) || parsed < 0) {
        std::fprintf(stderr, "moheco_d: bad deadline in '%s'\n", arg.c_str());
        return 2;
      }
      options.default_deadline_ms = parsed;
    } else if (key == "--checkpoint") {
      if (value.empty()) {
        std::fprintf(stderr, "moheco_d: missing directory in '%s'\n",
                     arg.c_str());
        return 2;
      }
      options.checkpoint_dir = value;
    } else if (key == "--faults") {
      try {
        fail::arm(value);
      } catch (const Error& e) {
        std::fprintf(stderr, "moheco_d: %s\n", e.what());
        return 2;
      }
    } else if (key == "--log" || key == "--log-level") {
      try {
        set_log_level(parse_log_level(value));
      } catch (const Error& e) {
        std::fprintf(stderr, "moheco_d: %s\n", e.what());
        return 2;
      }
    } else if (key == "--trace") {
      if (value.empty()) {
        std::fprintf(stderr, "moheco_d: missing file in '%s'\n", arg.c_str());
        return 2;
      }
      options.trace_path = value;
    } else if (key == "--metrics") {
      if (value.empty()) {
        std::fprintf(stderr, "moheco_d: missing file in '%s'\n", arg.c_str());
        return 2;
      }
      options.metrics_path = value;
    } else if (key == "--metrics-interval-ms") {
      if (!parse_int_flag(value, &parsed) || parsed < 1) {
        std::fprintf(stderr, "moheco_d: bad interval in '%s'\n", arg.c_str());
        return 2;
      }
      options.metrics_interval_ms = parsed;
    } else if (arg == "--version") {
      std::printf("moheco_d %s\n%s\n", obs::version(),
                  obs::build_json().c_str());
      return 0;
    } else {
      std::fprintf(stderr, "moheco_d: unknown option '%s' (see --help)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (options.socket_path.empty() && options.tcp_port < 0) {
    print_usage();
    std::fprintf(stderr, "moheco_d: no listener configured\n");
    return 2;
  }
  // MOHECO_FAULTS arms the chaos matrix in CI; an explicit --faults wins.
  if (!fail::armed()) fail::arm_from_env();

  try {
    serve::Daemon daemon(options);
    daemon.start();
    if (!options.socket_path.empty()) {
      std::printf("moheco_d: listening on %s\n", options.socket_path.c_str());
    }
    if (options.tcp_port >= 0) {
      std::printf("moheco_d: listening on 127.0.0.1:%d\n", daemon.tcp_port());
    }
    std::fflush(stdout);

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGPIPE, SIG_IGN);  // peers hanging up must not kill us

    // The signal handler only sets a flag (async-signal-safe); this loop
    // turns it into an orderly request_stop().  The "shutdown" op flips
    // running() from inside the daemon instead.
    while (daemon.running() && g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    daemon.request_stop();
    daemon.wait();
    std::printf("moheco_d: stopped\n");
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "moheco_d: %s\n", e.what());
    return 1;
  }
}
