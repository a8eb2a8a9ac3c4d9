// Micro benchmark for the transient engine: timesteps/sec on the 5T OTA
// step-response testbench (the workload a transient-aware yield flow runs
// once per Monte-Carlo sample), for adaptive and fixed stepping.
// Establishes the perf baseline for future transient optimizations; run
// with --scale=full for longer timing windows.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_support.hpp"
#include "src/circuits/topology.hpp"
#include "src/common/table.hpp"
#include "src/spice/dc_solver.hpp"
#include "src/spice/tran_solver.hpp"

namespace {

using namespace moheco;

struct Timing {
  long long steps = 0;
  long long newton = 0;
  double seconds = 0.0;
  int runs = 0;
};

Timing time_mode(spice::TranSolver& tran, const spice::TranOptions& options,
                 const std::vector<double>& op, int runs) {
  Timing timing;
  timing.runs = runs;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < runs; ++r) {
    if (tran.run(options, &op) != spice::SolveStatus::kOk) {
      std::fprintf(stderr, "transient failed\n");
      std::exit(1);
    }
    timing.steps += tran.stats().steps;
    timing.newton += tran.stats().newton_iterations;
  }
  timing.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return timing;
}

std::string format_rate(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = bench::bench_prologue(
      argc, argv, "Micro: transient timesteps/sec, 5T OTA step testbench");
  const int runs = options.scale == BenchScale::kSmoke
                       ? 20
                       : options.scale == BenchScale::kFull ? 1000 : 200;

  auto topology = circuits::make_five_transistor_ota();
  const std::vector<double> x0 = {60e-6, 40e-6, 20e-6, 0.7e-6, 0.85};
  circuits::BuiltCircuit circuit =
      topology->build(x0, circuits::Testbench::kStepBuffer);

  spice::DcSolver dc(circuit.netlist);
  if (dc.solve(spice::DcOptions{}) != spice::SolveStatus::kOk) {
    std::fprintf(stderr, "DC solve failed\n");
    return 1;
  }
  const std::vector<double> op = dc.op().solution;

  spice::TranOptions adaptive;
  adaptive.t_stop = circuit.step.t_stop;
  spice::TranOptions fixed = adaptive;
  fixed.adaptive = false;
  fixed.dt_init = adaptive.t_stop / 3000.0;

  // One solver reuses its workspace and symbolic analysis across every run.
  spice::TranSolver tran(circuit.netlist);

  // Warm up caches and the branch predictor before timing.
  time_mode(tran, adaptive, op, 3);

  Table table({"mode", "runs", "steps/run", "newton/step", "steps/sec",
               "transients/sec"});
  const struct {
    const char* name;
    const spice::TranOptions* mode;
  } modes[] = {{"adaptive", &adaptive}, {"fixed-3000", &fixed}};
  std::string json_rows;
  for (const auto& m : modes) {
    const Timing t = time_mode(tran, *m.mode, op, runs);
    const double steps_per_run = static_cast<double>(t.steps) / t.runs;
    const double steps_per_sec = t.steps / t.seconds;
    table.add_row({m.name, std::to_string(t.runs), format_rate(steps_per_run),
                   format_rate(static_cast<double>(t.newton) / t.steps),
                   format_rate(steps_per_sec),
                   format_rate(t.runs / t.seconds)});
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s{\"mode\":\"%s\",\"steps_per_sec\":%.1f,"
                  "\"transients_per_sec\":%.2f}",
                  json_rows.empty() ? "" : ",", m.name, steps_per_sec,
                  t.runs / t.seconds);
    json_rows += row;
  }
  table.print(std::cout,
              "transient micro bench (" + std::to_string(circuit.netlist
                                                             .num_nodes()) +
                  " nodes)");
  if (!options.json.empty()) {
    std::ofstream out(options.json);
    out << "{\"bench_micro_transient\":{\"modes\":[" << json_rows << "]}}\n";
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", options.json.c_str());
      return 1;
    }
  }
  return 0;
}
