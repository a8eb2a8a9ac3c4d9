// End-to-end benchmark: three workloads driven through the program's public
// calls, the same ones serve::JobRunner::run makes.  See e2ebench/README.md
// for why each workload exists, the metric catalog and the noise facts the
// timing design answers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.hpp"

namespace e2ebench {

enum class Workload { kOta5tMc, kEx2Opt, kEx1TranMc };

const char* workload_name(Workload w);
bool parse_workload(std::string_view name, Workload* out);

/// Stored inputs: designs, reference yields and the vetted optimizer seeds,
/// with the command and commit that produced them (e2ebench/reference.json).
struct Reference {
  double ota5t_yield = 0.0;
  long long ota5t_samples = 0;
  std::vector<double> ex1_design;
  double ex1_yield = 0.0;
  long long ex1_samples = 0;
  std::vector<double> ex2_design;
  /// A vetted optimizer seed and the simulations its run spent when the
  /// reference was made: the fixed unit of work behind ex2-opt sims_per_s.
  struct SeedRun {
    std::uint64_t seed = 0;
    long long sims = 0;
  };
  std::vector<SeedRun> ex2_seeds;
  std::string command;
  std::string commit;
};

/// Parses reference.json; throws moheco::Error on a missing or short field.
Reference parse_reference(const moheco::JsonValue& json);

struct RunConfig {
  Workload workload = Workload::kOta5tMc;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  std::string deck_text;  ///< examples/five_t_ota.cir (ota5t-mc only)
  Reference reference;
  /// Where a traced run writes its spans (Chrome trace JSON); empty = none.
  std::string trace_path;
};

struct MetricSpec {
  const char* name;
  const char* unit;
  bool per_layer;  ///< printed by traced runs; end-to-end otherwise
};

/// Every metric the benchmark prints, in print order.
const std::vector<MetricSpec>& metric_catalog();

struct RunOutcome {
  bool correct = true;
  long long attempted = 0;  ///< simulations attempted in the timed phase
  long long failed = 0;
  std::map<std::string, double> metrics;
  /// Run identity and check details (printed before the result line).
  std::string identity_json;
};

RunOutcome run_benchmark(const RunConfig& config);

/// The result line: {"correct","attempted","failed","metrics"} with every
/// catalog metric of the run's kind, each as {"value","unit"}.  A metric
/// the run did not produce is printed as 0.
std::string result_line(const RunOutcome& outcome, bool trace);

/// Writes reference.json for the stored inputs: reference yields at the
/// stored designs and the vetted ex2-opt optimizer seeds.  `commit` is the
/// source revision recorded as their provenance.
std::string make_reference(const std::string& deck_text,
                           const std::string& commit);

}  // namespace e2ebench
