#include "src/serve/protocol.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/error.hpp"
#include "src/common/failpoint.hpp"
#include "src/stats/samplers.hpp"

namespace moheco::serve {

std::string encode_submit(const JobSpec& spec, const std::string& tag) {
  const core::MohecoOptions& m = spec.moheco;
  JsonObject options;
  options.add_uint("seed", m.seed);
  options.add_string("sampling", stats::to_string(m.estimation.mc.sampling));
  options.add_int("population", m.population);
  options.add_int("max_generations", m.max_generations);
  options.add_int("stop_stagnation", m.stop_stagnation);
  options.add_bool("use_ocba", m.use_ocba);
  options.add_int("fixed_budget", m.fixed_budget);
  options.add_bool("use_memetic", m.use_memetic);
  options.add_int("estimate_samples", spec.estimate_samples);
  options.add_bool("transient", spec.eval.transient);
  options.add_bool("sized_deck", spec.want_sized_deck);
  // Only when set: keeps default submits byte-identical to older clients.
  if (spec.deadline_ms > 0) options.add_int("deadline_ms", spec.deadline_ms);

  JsonObject request;
  request.add_string("op", "submit");
  if (!tag.empty()) request.add_string("tag", tag);
  request.add_string("mode", to_string(spec.mode));
  request.add_string("deck_name", spec.deck_name);
  request.add_string("deck", spec.deck_text);
  request.add_raw("options", options.str());
  return request.str();
}

bool decode_submit(const JsonValue& request, JobSpec* spec, std::string* tag,
                   std::string* error) {
  *spec = JobSpec{};
  tag->clear();
  if (request["tag"].is_string()) *tag = request["tag"].as_string();

  if (!request["mode"].is_string() ||
      !parse_job_mode(request["mode"].as_string(), &spec->mode)) {
    *error = "submit requires mode: nominal | estimate | optimize";
    return false;
  }
  if (!request["deck"].is_string() || request["deck"].as_string().empty()) {
    *error = "submit requires a non-empty string field 'deck'";
    return false;
  }
  spec->deck_text = request["deck"].as_string();
  spec->deck_name = request["deck_name"].is_string()
                        ? request["deck_name"].as_string()
                        : "<submitted>";

  const JsonValue& options = request["options"];
  if (options.is_null()) return true;
  if (!options.is_object()) {
    *error = "'options' must be an object";
    return false;
  }
  core::MohecoOptions& m = spec->moheco;
  for (const auto& [key, value] : options.members()) {
    if (key == "seed") {
      m.seed = value.as_uint();
    } else if (key == "sampling") {
      bool bad = !value.is_string();
      if (!bad) {
        try {
          m.estimation.mc.sampling =
              stats::parse_sampling_method(value.as_string());
        } catch (const Error&) {
          bad = true;
        }
      }
      if (bad) {
        *error = "options.sampling must be \"lhs\" or \"pmc\"";
        return false;
      }
    } else if (key == "population") {
      m.population = static_cast<int>(value.as_int());
    } else if (key == "max_generations") {
      m.max_generations = static_cast<int>(value.as_int());
    } else if (key == "stop_stagnation") {
      m.stop_stagnation = static_cast<int>(value.as_int());
    } else if (key == "use_ocba") {
      m.use_ocba = value.as_bool();
    } else if (key == "fixed_budget") {
      m.fixed_budget = static_cast<int>(value.as_int());
    } else if (key == "use_memetic") {
      m.use_memetic = value.as_bool();
    } else if (key == "estimate_samples") {
      spec->estimate_samples = value.as_int();
      if (spec->estimate_samples <= 0) {
        *error = "options.estimate_samples must be positive";
        return false;
      }
    } else if (key == "transient") {
      spec->eval.transient = value.as_bool();
    } else if (key == "sized_deck") {
      spec->want_sized_deck = value.as_bool();
    } else if (key == "deadline_ms") {
      spec->deadline_ms = value.as_int();
      if (spec->deadline_ms < 0) {
        *error = "options.deadline_ms must be non-negative";
        return false;
      }
    } else {
      *error = "unknown option '" + key + "'";
      return false;
    }
  }
  if (m.population < 4) {
    *error = "options.population must be at least 4";
    return false;
  }
  if (m.max_generations < 1) {
    *error = "options.max_generations must be positive";
    return false;
  }
  return true;
}

std::string encode_op(const std::string& op) {
  JsonObject request;
  request.add_string("op", op);
  return request.str();
}

std::string encode_job_op(const std::string& op, std::uint64_t job) {
  JsonObject request;
  request.add_string("op", op);
  request.add_uint("job", job);
  return request.str();
}

bool send_line(int fd, const std::string& line) {
  if (fail::should_fail(fail::Site::kSockWrite)) return false;
  std::string framed = line;
  framed.push_back('\n');
  std::size_t sent = 0;
  while (sent < framed.size()) {
    // MSG_NOSIGNAL: a peer that hung up must yield EPIPE, not kill the
    // process with SIGPIPE.
    const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> LineReader::next() {
  timed_out_ = false;
  if (broken_) return std::nullopt;
  if (fail::should_fail(fail::Site::kSockRead)) {
    broken_ = true;
    return std::nullopt;
  }
  while (true) {
    const std::size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      return line;
    }
    scanned_ = buffer_.size();
    if (buffer_.size() > max_line_) {
      broken_ = true;
      return std::nullopt;
    }
    if (timeout_ms_ > 0) {
      struct pollfd pfd {};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      int rc;
      do {
        rc = ::poll(&pfd, 1, timeout_ms_);
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) {
        // Stream stays usable: the caller may retry after handling it.
        timed_out_ = true;
        return std::nullopt;
      }
      if (rc < 0) {
        broken_ = true;
        return std::nullopt;
      }
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      broken_ = true;
      return std::nullopt;
    }
    if (n == 0) {
      broken_ = true;
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace moheco::serve
