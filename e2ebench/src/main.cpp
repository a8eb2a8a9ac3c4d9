// e2ebench: runs one benchmark workload in-process and prints its metrics.
//
//   e2ebench --root DIR --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-out FILE]
//   e2ebench --root DIR --make-reference FILE [--commit SHA]
//
// DIR is the repository checkout (examples/five_t_ota.cir and
// e2ebench/reference.json are read from it).  The last stdout line is the
// result object; the line before it is the run identity.  Normally started
// through e2ebench/run.py, which builds this binary first.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "src/common/error.hpp"
#include "src/common/json.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw moheco::Error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --root DIR --workload "
               "ota5t-mc|ex2-opt|ex1-tran-mc --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n"
               "       e2ebench --root DIR --make-reference FILE "
               "[--commit SHA]\n",
               problem.c_str());
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& text,
                    long long lo, long long hi) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || v < lo || v > hi) {
    usage("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".", workload, trace_out, reference_out, commit;
  e2ebench::RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--root") root = value;
    else if (flag == "--workload") workload = value;
    else if (flag == "--seed") {
      config.seed = static_cast<std::uint64_t>(
          parse_int(flag, value, 0, (1LL << 62)));
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = static_cast<double>(parse_int(flag, value, 0, 3600));
      have_seconds = true;
    } else if (flag == "--trace") {
      config.trace = parse_int(flag, value, 0, 1) == 1;
      have_trace = true;
    } else if (flag == "--trace-out") trace_out = value;
    else if (flag == "--make-reference") reference_out = value;
    else if (flag == "--commit") commit = value;
    else usage("unknown flag " + flag);
  }

  try {
    const std::string deck_text = read_file(root + "/examples/five_t_ota.cir");
    if (!reference_out.empty()) {
      std::ofstream out(reference_out);
      out << e2ebench::make_reference(deck_text, commit) << '\n';
      if (!out) throw moheco::Error("cannot write " + reference_out);
      return 0;
    }
    if (!e2ebench::parse_workload(workload, &config.workload)) {
      usage("unknown workload '" + workload + "'");
    }
    if (!have_seed || !have_seconds || !have_trace) {
      usage("--seed, --seconds and --trace are required");
    }
    const auto reference =
        moheco::parse_json(read_file(root + "/e2ebench/reference.json"));
    if (!reference) throw moheco::Error("e2ebench/reference.json: bad JSON");
    config.reference = e2ebench::parse_reference(*reference);
    if (config.workload == e2ebench::Workload::kOta5tMc) {
      config.deck_text = deck_text;
    }
    config.trace_path = trace_out;

    const e2ebench::RunOutcome outcome = e2ebench::run_benchmark(config);
    std::cout << outcome.identity_json << '\n'
              << e2ebench::result_line(outcome, config.trace) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
