#include "workload/descriptor.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "workload/bsp_app.h"

namespace atcsim::workload {

namespace {

using sim::SimTime;

constexpr SimTime kMaxPhaseDuration = 60 * sim::kSecond;
constexpr std::uint64_t kMaxPhaseBytes = 256ull * 1024 * 1024;  // 256 MiB
constexpr std::uint64_t kDefaultBarrierBytes = 64 * 1024;
constexpr double kMaxJitter = 0.9;
constexpr double kMaxCacheSens = 64.0;
constexpr int kMaxStepsPerIter = 100'000;
constexpr double kMaxRateUnits = 1e9;
constexpr int kMaxLocalBarriers = 31;  // sync_rounds <= 32
constexpr std::size_t kMaxPhases = 64;
constexpr std::size_t kMaxNameLen = 64;

[[noreturn]] void fail(const std::string& why) { throw DescriptorError(why); }

[[noreturn]] void fail_at(const std::string& why, const std::string& stmt) {
  fail(why + " in: '" + stmt + "'");
}

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > kMaxNameLen) return false;
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          c == '_' || c == '-')) {
      return false;
    }
  }
  return true;
}

/// Shortest decimal rendering of `v` that strtod parses back exactly.
std::string print_double(double v) {
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

double parse_double(const std::string& tok, const char* what,
                    const std::string& stmt) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size() || tok.empty() || !std::isfinite(v)) {
    fail_at(std::string("malformed ") + what + " '" + tok + "'", stmt);
  }
  return v;
}

/// "<number>[ns|us|ms|s]" -> nanoseconds.  The number may be fractional
/// ("1.5ms"); the result is rounded to the nearest nanosecond.
SimTime parse_duration(const std::string& tok, const std::string& stmt) {
  std::size_t unit_at = tok.size();
  while (unit_at > 0 &&
         std::isalpha(static_cast<unsigned char>(tok[unit_at - 1]))) {
    --unit_at;
  }
  const std::string_view unit(tok.data() + unit_at, tok.size() - unit_at);
  SimTime scale = 1;
  if (unit == "ns" || unit.empty()) {
    scale = 1;
  } else if (unit == "us") {
    scale = sim::kMicrosecond;
  } else if (unit == "ms") {
    scale = sim::kMillisecond;
  } else if (unit == "s") {
    scale = sim::kSecond;
  } else {
    fail_at("unknown duration unit '" + std::string(unit) + "'", stmt);
  }
  const double v =
      parse_double(tok.substr(0, unit_at), "duration", stmt);
  if (v < 0 || v * static_cast<double>(scale) >
                   static_cast<double>(kMaxPhaseDuration) * 2) {
    fail_at("duration '" + tok + "' out of range", stmt);
  }
  return static_cast<SimTime>(std::llround(v * static_cast<double>(scale)));
}

/// "<number>[B|KiB|MiB]" -> bytes.
std::uint64_t parse_size(const std::string& tok, const std::string& stmt) {
  std::size_t unit_at = tok.size();
  while (unit_at > 0 &&
         std::isalpha(static_cast<unsigned char>(tok[unit_at - 1]))) {
    --unit_at;
  }
  const std::string_view unit(tok.data() + unit_at, tok.size() - unit_at);
  std::uint64_t scale = 1;
  if (unit == "B" || unit.empty()) {
    scale = 1;
  } else if (unit == "KiB") {
    scale = 1024;
  } else if (unit == "MiB") {
    scale = 1024 * 1024;
  } else {
    fail_at("unknown size unit '" + std::string(unit) + "'", stmt);
  }
  const double v = parse_double(tok.substr(0, unit_at), "size", stmt);
  if (v < 0 || v * static_cast<double>(scale) >
                   static_cast<double>(kMaxPhaseBytes) * 2) {
    fail_at("size '" + tok + "' out of range", stmt);
  }
  return static_cast<std::uint64_t>(
      std::llround(v * static_cast<double>(scale)));
}

std::string print_duration(SimTime t) {
  const SimTime units[] = {sim::kSecond, sim::kMillisecond, sim::kMicrosecond};
  const char* names[] = {"s", "ms", "us"};
  for (int i = 0; i < 3; ++i) {
    if (t >= units[i] && t % units[i] == 0) {
      return std::to_string(t / units[i]) + names[i];
    }
  }
  return std::to_string(t) + "ns";
}

std::string print_size(std::uint64_t b) {
  if (b >= 1024 * 1024 && b % (1024 * 1024) == 0) {
    return std::to_string(b / (1024 * 1024)) + "MiB";
  }
  if (b >= 1024 && b % 1024 == 0) return std::to_string(b / 1024) + "KiB";
  return std::to_string(b) + "B";
}

/// Optional "jitter=<f>" argument of compute/think phases.
double parse_phase_args(const std::vector<std::string>& toks,
                        std::size_t first, const std::string& stmt) {
  double jitter = 0.0;
  bool seen = false;
  for (std::size_t i = first; i < toks.size(); ++i) {
    const std::string& t = toks[i];
    if (t.rfind("jitter=", 0) == 0) {
      if (seen) fail_at("duplicate jitter argument", stmt);
      seen = true;
      jitter = parse_double(t.substr(7), "jitter", stmt);
    } else {
      fail_at("unknown phase argument '" + t + "'", stmt);
    }
  }
  return jitter;
}

}  // namespace

const char* phase_kind_name(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::kCompute: return "compute";
    case PhaseKind::kThink: return "think";
    case PhaseKind::kIo: return "io";
    case PhaseKind::kSend: return "send";
    case PhaseKind::kLocalBarrier: return "local_barrier";
    case PhaseKind::kBarrier: return "barrier";
  }
  return "?";
}

bool Descriptor::parallel() const {
  return !phases.empty() && phases.back().kind == PhaseKind::kBarrier;
}

int Descriptor::local_barriers() const {
  int n = 0;
  for (const Phase& p : phases) {
    if (p.kind == PhaseKind::kLocalBarrier) ++n;
  }
  return n;
}

std::uint64_t Descriptor::barrier_bytes() const {
  return parallel() ? phases.back().bytes : 0;
}

std::string Descriptor::validate() const {
  if (!valid_name(name)) {
    return "workload name '" + name +
           "' must be 1-64 characters of [A-Za-z0-9._-]";
  }
  if (!(cache_sensitivity > 0.0) || cache_sensitivity > kMaxCacheSens) {
    return "cache_sens " + print_double(cache_sensitivity) +
           " outside (0, " + print_double(kMaxCacheSens) + "]";
  }
  if (steps_per_iter < 1 || steps_per_iter > kMaxStepsPerIter) {
    return "steps_per_iter " + std::to_string(steps_per_iter) +
           " outside [1, " + std::to_string(kMaxStepsPerIter) + "]";
  }
  if (rate_units < 0.0 || rate_units > kMaxRateUnits ||
      !std::isfinite(rate_units)) {
    return "rate_units " + print_double(rate_units) + " outside [0, 1e9]";
  }
  if (phases.empty()) return "descriptor has no phases";
  if (phases.size() > kMaxPhases) {
    return "descriptor has " + std::to_string(phases.size()) +
           " phases; at most " + std::to_string(kMaxPhases) + " allowed";
  }

  int barriers = 0;
  int locals = 0;
  bool has_send = false;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    const std::string where =
        std::string("phase ") + phase_kind_name(p.kind) + " #" +
        std::to_string(i + 1);
    switch (p.kind) {
      case PhaseKind::kCompute:
      case PhaseKind::kThink:
        if (p.duration < 1 || p.duration > kMaxPhaseDuration) {
          return where + ": duration " + std::to_string(p.duration) +
                 "ns outside [1ns, 60s]";
        }
        if (p.jitter < 0.0 || p.jitter > kMaxJitter ||
            !std::isfinite(p.jitter)) {
          return where + ": jitter " + print_double(p.jitter) +
                 " outside [0, " + print_double(kMaxJitter) + "]";
        }
        if (p.bytes != 0) return where + ": unexpected byte volume";
        break;
      case PhaseKind::kIo:
      case PhaseKind::kSend:
      case PhaseKind::kBarrier:
        if (p.bytes < 1 || p.bytes > kMaxPhaseBytes) {
          return where + ": size " + std::to_string(p.bytes) +
                 "B outside [1B, 256MiB]";
        }
        if (p.duration != 0 || p.jitter != 0.0) {
          return where + ": unexpected duration/jitter";
        }
        if (p.kind == PhaseKind::kBarrier) {
          ++barriers;
          if (i + 1 != phases.size()) {
            return "barrier must be the last phase";
          }
        }
        if (p.kind == PhaseKind::kSend) has_send = true;
        break;
      case PhaseKind::kLocalBarrier:
        if (p.duration != 0 || p.jitter != 0.0 || p.bytes != 0) {
          return where + ": unexpected arguments";
        }
        ++locals;
        break;
    }
  }
  if (barriers > 1) return "at most one barrier phase allowed";
  const bool is_parallel = barriers == 1;
  if (is_parallel && phases.size() == 1) {
    return "a parallel descriptor needs at least one phase besides the "
           "barrier";
  }
  if (!is_parallel && locals > 0) {
    return "local_barrier requires a trailing barrier phase";
  }
  if (!is_parallel && has_send) {
    return "send requires a trailing barrier phase";
  }
  if (locals > kMaxLocalBarriers) {
    return std::to_string(locals) + " local_barrier phases exceed the " +
           std::to_string(kMaxLocalBarriers) + " maximum";
  }
  if (is_parallel && rate_units != 0.0) {
    return "rate_units applies only to loop (non-barrier) descriptors";
  }
  return "";
}

std::string Descriptor::print() const {
  std::string out = "workload " + name + "\n";
  out += "cache_sens " + print_double(cache_sensitivity) + "\n";
  out += "steps_per_iter " + std::to_string(steps_per_iter) + "\n";
  if (rate_units != 0.0) {
    out += "rate_units " + print_double(rate_units) + "\n";
  }
  for (const Phase& p : phases) {
    out += std::string("phase ") + phase_kind_name(p.kind);
    switch (p.kind) {
      case PhaseKind::kCompute:
      case PhaseKind::kThink:
        out += ' ';
        out += print_duration(p.duration);
        if (p.jitter != 0.0) out += " jitter=" + print_double(p.jitter);
        break;
      case PhaseKind::kIo:
      case PhaseKind::kSend:
      case PhaseKind::kBarrier:
        out += ' ';
        out += print_size(p.bytes);
        break;
      case PhaseKind::kLocalBarrier:
        break;
    }
    out += "\n";
  }
  return out;
}

Descriptor Descriptor::parse(const std::string& text) {
  Descriptor d;
  bool seen_name = false;
  bool seen_cache = false;
  bool seen_steps = false;
  bool seen_rate = false;

  // Statements are separated by newlines or ';' (inline CLI form); '#'
  // comments run to the end of the line.
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find_first_of("\n;", pos);
    if (end == std::string::npos) end = text.size();
    std::string stmt = text.substr(pos, end - pos);
    pos = end + 1;
    if (const std::size_t hash = stmt.find('#'); hash != std::string::npos) {
      stmt.erase(hash);
    }

    std::vector<std::string> toks;
    std::size_t i = 0;
    while (i < stmt.size()) {
      while (i < stmt.size() &&
             std::isspace(static_cast<unsigned char>(stmt[i]))) {
        ++i;
      }
      std::size_t j = i;
      while (j < stmt.size() &&
             !std::isspace(static_cast<unsigned char>(stmt[j]))) {
        ++j;
      }
      if (j > i) toks.push_back(stmt.substr(i, j - i));
      i = j;
    }
    if (toks.empty()) continue;

    const std::string& dir = toks[0];
    auto scalar_value = [&](bool& seen) -> const std::string& {
      if (seen) fail_at("duplicate '" + dir + "' directive", stmt);
      seen = true;
      if (toks.size() != 2) {
        fail_at("'" + dir + "' takes exactly one value", stmt);
      }
      return toks[1];
    };

    if (dir == "workload") {
      d.name = scalar_value(seen_name);
    } else if (dir == "cache_sens") {
      d.cache_sensitivity =
          parse_double(scalar_value(seen_cache), "cache_sens", stmt);
    } else if (dir == "steps_per_iter") {
      const std::string& v = scalar_value(seen_steps);
      char* endp = nullptr;
      const long n = std::strtol(v.c_str(), &endp, 10);
      if (endp != v.c_str() + v.size() || v.empty()) {
        fail_at("malformed steps_per_iter '" + v + "'", stmt);
      }
      d.steps_per_iter = static_cast<int>(n);
    } else if (dir == "rate_units") {
      d.rate_units = parse_double(scalar_value(seen_rate), "rate_units", stmt);
    } else if (dir == "phase") {
      if (toks.size() < 2) fail_at("phase needs a kind", stmt);
      const std::string& kind = toks[1];
      Phase p;
      if (kind == "compute" || kind == "think") {
        p.kind = kind == "compute" ? PhaseKind::kCompute : PhaseKind::kThink;
        if (toks.size() < 3) fail_at("phase " + kind + " needs a duration",
                                     stmt);
        p.duration = parse_duration(toks[2], stmt);
        p.jitter = parse_phase_args(toks, 3, stmt);
      } else if (kind == "io" || kind == "send") {
        p.kind = kind == "io" ? PhaseKind::kIo : PhaseKind::kSend;
        if (toks.size() != 3) fail_at("phase " + kind + " takes a size",
                                      stmt);
        p.bytes = parse_size(toks[2], stmt);
      } else if (kind == "local_barrier") {
        p.kind = PhaseKind::kLocalBarrier;
        if (toks.size() != 2) {
          fail_at("phase local_barrier takes no arguments", stmt);
        }
      } else if (kind == "barrier") {
        p.kind = PhaseKind::kBarrier;
        if (toks.size() > 3) fail_at("phase barrier takes at most a size",
                                     stmt);
        p.bytes = toks.size() == 3 ? parse_size(toks[2], stmt)
                                   : kDefaultBarrierBytes;
      } else {
        fail_at("unknown phase kind '" + kind + "'", stmt);
      }
      d.phases.push_back(p);
    } else {
      fail_at("unknown directive '" + dir + "'", stmt);
    }
  }

  if (!seen_name) fail("descriptor has no 'workload <name>' directive");
  if (const std::string err = d.validate(); !err.empty()) fail(err);
  return d;
}

Descriptor Descriptor::from_bsp(const BspConfig& cfg) {
  if (cfg.sync_rounds < 1 || cfg.sync_rounds > kMaxLocalBarriers + 1) {
    fail("BspConfig.sync_rounds must be in [1, 32], got " +
         std::to_string(cfg.sync_rounds));
  }
  Descriptor d;
  d.name = cfg.name;
  d.cache_sensitivity = cfg.cache_sensitivity;
  d.steps_per_iter = cfg.supersteps_per_iteration;
  // The exact segmentation BspApp has always used: integer division, every
  // segment equal — so the descriptor twin draws the identical jitter
  // sequence and the golden traces stay byte-identical.
  const SimTime segment =
      cfg.compute_per_superstep / std::max(1, cfg.sync_rounds);
  for (int r = 0; r < cfg.sync_rounds; ++r) {
    Phase c;
    c.kind = PhaseKind::kCompute;
    c.duration = segment;
    c.jitter = cfg.compute_jitter;
    d.phases.push_back(c);
    if (r < cfg.sync_rounds - 1) {
      Phase lb;
      lb.kind = PhaseKind::kLocalBarrier;
      d.phases.push_back(lb);
    }
  }
  Phase b;
  b.kind = PhaseKind::kBarrier;
  b.bytes = cfg.bytes_per_msg;
  d.phases.push_back(b);
  if (const std::string err = d.validate(); !err.empty()) fail(err);
  return d;
}

BspConfig Descriptor::to_bsp() const {
  BspConfig cfg;
  cfg.name = name;
  cfg.cache_sensitivity = cache_sensitivity;
  cfg.supersteps_per_iteration = steps_per_iter;
  cfg.sync_rounds = std::min(local_barriers() + 1, kMaxLocalBarriers + 1);
  cfg.compute_per_superstep = 0;
  cfg.compute_jitter = 0.0;
  bool first_compute = true;
  for (const Phase& p : phases) {
    if (p.kind == PhaseKind::kCompute) {
      cfg.compute_per_superstep += p.duration;
      if (first_compute) {
        cfg.compute_jitter = p.jitter;
        first_compute = false;
      }
    }
  }
  cfg.bytes_per_msg = parallel() ? barrier_bytes() : kDefaultBarrierBytes;
  return cfg;
}

}  // namespace atcsim::workload
