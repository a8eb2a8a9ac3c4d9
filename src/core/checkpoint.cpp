#include "src/core/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/atomic_file.hpp"
#include "src/common/error.hpp"

namespace moheco::core {
namespace {

const char* const kStateFile = "checkpoint.txt";

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw Error("checkpoint: cannot parse " + path + ": " + what);
}

/// Reads one non-empty, non-comment line and checks its leading tag.
std::istringstream expect(std::ifstream& in, const std::string& path,
                          const std::string& tag) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream iss(line);
    std::string got;
    iss >> got;
    if (got != tag) corrupt(path, "expected '" + tag + "', got '" + got + "'");
    return iss;
  }
  corrupt(path, "unexpected end of file (wanted '" + tag + "')");
}

template <typename T>
T field(std::istringstream& iss, const std::string& path, const char* name) {
  T value{};
  if (!(iss >> value)) corrupt(path, std::string("bad field ") + name);
  return value;
}

std::vector<double> vec_field(std::istringstream& iss, const std::string& path,
                              const char* name) {
  const auto n = field<std::size_t>(iss, path, name);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = field<double>(iss, path, name);
  return out;
}

void put_vec(std::ostream& out, const std::vector<double>& v) {
  out << ' ' << v.size();
  for (double d : v) out << ' ' << d;
}

}  // namespace

void save_checkpoint(const std::string& dir, const Checkpoint& state) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw Error("checkpoint: cannot create " + dir + ": " + ec.message());
  }
  std::ostringstream out;
  out.precision(17);
  out << "moheco-ckpt " << kCheckpointVersion << '\n';
  out << "seed " << state.seed << '\n';
  out << "dim " << state.dim << '\n';
  out << "population " << state.population << '\n';
  out << "use_ocba " << int(state.use_ocba) << '\n';
  out << "generation " << state.generation << '\n';
  out << "done " << int(state.done) << '\n';
  out << "reached_full_yield " << int(state.reached_full_yield) << '\n';
  out << "result_generations " << state.result_generations << '\n';
  out << "best_scalar " << state.best_scalar << '\n';
  out << "stagnant " << state.stagnant_ls << ' ' << state.stagnant_stop
      << '\n';
  out << "stream_counter " << state.stream_counter << '\n';
  out << "rng " << state.rng.s[0] << ' ' << state.rng.s[1] << ' '
      << state.rng.s[2] << ' ' << state.rng.s[3] << ' ' << state.rng.spare
      << ' ' << int(state.rng.has_spare) << '\n';
  out << "last_ls";
  put_vec(out, state.last_local_search_x);
  out << '\n';
  out << "sims " << state.sims.screen << ' ' << state.sims.stage1 << ' '
      << state.sims.ocba << ' ' << state.sims.stage2 << ' '
      << state.sims.other << '\n';
  out << "fails " << state.fails.quarantine_open << ' '
      << state.fails.quarantine_eval << ' ' << state.fails.quarantine_screen
      << '\n';
  for (const Checkpoint::MemberState& m : state.members) {
    out << "member";
    put_vec(out, m.x);
    out << '\n';
    out << "fitness " << int(m.feasible) << ' ' << m.violation << ' '
        << m.yield << ' ' << m.samples << '\n';
    out << "tally " << int(m.has_tally);
    if (m.has_tally) {
      out << ' ' << m.stream_seed << ' ' << m.tally_samples << ' '
          << m.tally_passes << ' ' << m.tally_batches << ' '
          << int(m.screened) << ' ' << int(m.nominal_pass) << ' '
          << m.nominal_violation << ' ' << int(m.tally_failed) << ' '
          << m.fail_reason;
    }
    out << '\n';
  }
  for (const auto& [key, blob] : state.blobs) {
    out << "blob " << key;
    put_vec(out, blob);
    out << '\n';
  }
  out << "end\n";
  const std::string error =
      write_file_atomic(dir + "/" + kStateFile, out.str());
  if (!error.empty()) throw Error("checkpoint: " + error);
}

std::optional<Checkpoint> load_checkpoint(const std::string& dir) {
  const std::string path = dir + "/" + kStateFile;
  std::ifstream in(path);
  if (!in) return std::nullopt;

  Checkpoint ck;
  {
    auto iss = expect(in, path, "moheco-ckpt");
    const int version = field<int>(iss, path, "version");
    if (version != kCheckpointVersion) {
      corrupt(path, "unsupported version " + std::to_string(version));
    }
  }
  {
    auto iss = expect(in, path, "seed");
    ck.seed = field<std::uint64_t>(iss, path, "seed");
  }
  {
    auto iss = expect(in, path, "dim");
    ck.dim = field<std::size_t>(iss, path, "dim");
  }
  {
    auto iss = expect(in, path, "population");
    ck.population = field<int>(iss, path, "population");
    if (ck.population < 0 || ck.population > 1000000) {
      corrupt(path, "implausible population");
    }
  }
  {
    auto iss = expect(in, path, "use_ocba");
    ck.use_ocba = field<int>(iss, path, "use_ocba") != 0;
  }
  {
    auto iss = expect(in, path, "generation");
    ck.generation = field<int>(iss, path, "generation");
  }
  {
    auto iss = expect(in, path, "done");
    ck.done = field<int>(iss, path, "done") != 0;
  }
  {
    auto iss = expect(in, path, "reached_full_yield");
    ck.reached_full_yield = field<int>(iss, path, "reached_full_yield") != 0;
  }
  {
    auto iss = expect(in, path, "result_generations");
    ck.result_generations = field<int>(iss, path, "result_generations");
  }
  {
    auto iss = expect(in, path, "best_scalar");
    ck.best_scalar = field<double>(iss, path, "best_scalar");
  }
  {
    auto iss = expect(in, path, "stagnant");
    ck.stagnant_ls = field<int>(iss, path, "stagnant_ls");
    ck.stagnant_stop = field<int>(iss, path, "stagnant_stop");
  }
  {
    auto iss = expect(in, path, "stream_counter");
    ck.stream_counter = field<std::uint64_t>(iss, path, "stream_counter");
  }
  {
    auto iss = expect(in, path, "rng");
    for (auto& s : ck.rng.s) s = field<std::uint64_t>(iss, path, "rng.s");
    ck.rng.spare = field<double>(iss, path, "rng.spare");
    ck.rng.has_spare = field<int>(iss, path, "rng.has_spare") != 0;
  }
  {
    auto iss = expect(in, path, "last_ls");
    ck.last_local_search_x = vec_field(iss, path, "last_ls");
  }
  {
    auto iss = expect(in, path, "sims");
    ck.sims.screen = field<long long>(iss, path, "sims");
    ck.sims.stage1 = field<long long>(iss, path, "sims");
    ck.sims.ocba = field<long long>(iss, path, "sims");
    ck.sims.stage2 = field<long long>(iss, path, "sims");
    ck.sims.other = field<long long>(iss, path, "sims");
  }
  {
    auto iss = expect(in, path, "fails");
    ck.fails.quarantine_open = field<long long>(iss, path, "fails");
    ck.fails.quarantine_eval = field<long long>(iss, path, "fails");
    ck.fails.quarantine_screen = field<long long>(iss, path, "fails");
  }
  ck.members.reserve(static_cast<std::size_t>(ck.population));
  for (int i = 0; i < ck.population; ++i) {
    Checkpoint::MemberState m;
    {
      auto iss = expect(in, path, "member");
      m.x = vec_field(iss, path, "member.x");
    }
    {
      auto iss = expect(in, path, "fitness");
      m.feasible = field<int>(iss, path, "fitness.feasible") != 0;
      m.violation = field<double>(iss, path, "fitness.violation");
      m.yield = field<double>(iss, path, "fitness.yield");
      m.samples = field<long long>(iss, path, "fitness.samples");
    }
    {
      auto iss = expect(in, path, "tally");
      m.has_tally = field<int>(iss, path, "tally.present") != 0;
      if (m.has_tally) {
        m.stream_seed = field<std::uint64_t>(iss, path, "tally.stream_seed");
        m.tally_samples = field<long long>(iss, path, "tally.samples");
        m.tally_passes = field<long long>(iss, path, "tally.passes");
        m.tally_batches = field<long long>(iss, path, "tally.batches");
        m.screened = field<int>(iss, path, "tally.screened") != 0;
        m.nominal_pass = field<int>(iss, path, "tally.nominal_pass") != 0;
        m.nominal_violation =
            field<double>(iss, path, "tally.nominal_violation");
        m.tally_failed = field<int>(iss, path, "tally.failed") != 0;
        m.fail_reason = field<int>(iss, path, "tally.fail_reason");
        if (m.fail_reason < 0 ||
            m.fail_reason >= static_cast<int>(mc::kNumFailEvents)) {
          corrupt(path, "bad tally.fail_reason");
        }
      }
    }
    ck.members.push_back(std::move(m));
  }
  // Trailing blob entries up to the "end" sentinel.
  std::string line;
  bool ended = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream iss(line);
    std::string tag;
    iss >> tag;
    if (tag == "end") {
      ended = true;
      break;
    }
    if (tag != "blob") corrupt(path, "expected 'blob' or 'end', got " + tag);
    const auto key = field<std::string>(iss, path, "blob.key");
    ck.blobs[key] = vec_field(iss, path, "blob.values");
  }
  if (!ended) corrupt(path, "missing 'end' sentinel (truncated file?)");
  return ck;
}

}  // namespace moheco::core
