// atcsim_bench: one measured run of a benchmark workload, driven through
// the public cluster::ScenarioBuilder / Scenario API.  Prints one JSON
// record of raw measurements on stdout; run.py repeats runs in fresh
// processes, turns the records into the benchmark's metrics and gates
// correctness on the digests.  README.md describes workloads and metrics.
//
//   atcsim_bench --workload mixed512_atcpm --seed 1 [--trace] [--smoke]
//
// A run builds a scenario from the seed (build + populate + start, timed
// as set-up), simulates the workload's warmup untimed, then times a fixed
// simulated window: host wall, process CPU (all threads) and simulator
// counters.  Every run of one seed simulates the same window, so its digest
// (window events plus the simulated outputs) must repeat.
//
// --trace  attach per-shard trace observers that count events by category
//          and type and charge host time to categories.
#include <sys/resource.h>
#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "obs/trace.h"
#include "simcore/shard.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Heap-allocation counter for simcore.allocs_per_event.  The simulator's
// event loop is allocation-free by design, so the relaxed increment stays
// off the hot path.  Defined in this translation unit only.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#ifndef ATCSIM_BUILD_TYPE
#define ATCSIM_BUILD_TYPE "unknown"
#endif

namespace {

using namespace atcsim;
using Clock = std::chrono::steady_clock;
using obs::TraceCat;

struct Workload {
  const char* name;
  int nodes;
  int shards;       ///< also the worker-thread count
  bool mixed;       ///< build_mixed + ATC+PM; otherwise type-A lu.B + ATC
  double warmup_s;  ///< simulated, untimed
  double window_s;  ///< simulated, timed
};

// Why these windows: ATC shortens slices over the first ~2 s simulated; at
// 16384 nodes that transient would take minutes of host time, so
// lu16384_s4 times the early supersteps.  mixed512_atcpm times
// ctrl_report's window (1 s warmup, 2 s measured), in which the rebalancer
// migrates.
constexpr Workload kWorkloads[] = {
    {"lu16384_s4", 16384, 4, false, 0.1, 0.3},
    {"mixed512_atcpm", 512, 1, true, 1.0, 2.0},
};
// --smoke: the same shapes at a fraction of the nodes and simulated time.
constexpr Workload kSmokeWorkloads[] = {
    {"lu16384_s4", 256, 4, false, 0.1, 0.2},
    {"mixed512_atcpm", 64, 1, true, 0.5, 0.5},
};

sim::SimTime sim_time(double seconds) {
  return static_cast<sim::SimTime>(std::llround(seconds * 1e9));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::unique_ptr<cluster::Scenario> build(const Workload& w,
                                         std::uint64_t seed) {
  cluster::ScenarioBuilder b;
  b.nodes(w.nodes).seed(seed).shards(w.shards).shard_threads(
      static_cast<std::size_t>(w.shards));
  if (w.mixed) {
    b.approach(cluster::Approach::kATCPM);
  } else {
    b.pcpus_per_node(8).vms_per_node(4).vcpus_per_vm(8).approach(
        cluster::Approach::kATC);
  }
  return b.build();
}

void populate(const Workload& w, cluster::Scenario& s) {
  if (w.mixed) {
    cluster::build_mixed(s);
  } else {
    cluster::build_type_a(s, "lu", workload::NpbClass::kB);
  }
}

/// Cumulative simulator counters, read between run_for() calls.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t migrations = 0;
  std::uint64_t switches = 0;
  std::uint64_t fabric_posted = 0;
  std::uint64_t periods = 0;
  sim::ShardGroup::Stats pdes;
};

Counters read_counters(cluster::Scenario& s) {
  Counters c;
  c.events = s.events_executed();
  for (int k = 0; k < s.shard_count(); ++k) {
    c.migrations += s.migrator(k).migrations_started();
    c.switches += s.platform(k).engine().total_switches();
  }
  if (const net::ShardFabric* f = s.fabric()) c.fabric_posted = f->posted();
  if (const sim::ShardGroup* g = s.shard_group()) c.pdes = g->stats();
  if (const auto& rb = s.approach_runtime().rebalancer) {
    c.periods = rb->periods_observed();
  }
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.events = a.events - b.events;
  d.migrations = a.migrations - b.migrations;
  d.switches = a.switches - b.switches;
  d.fabric_posted = a.fabric_posted - b.fabric_posted;
  d.periods = a.periods - b.periods;
  d.pdes.rounds = a.pdes.rounds - b.pdes.rounds;
  d.pdes.horizon_extensions =
      a.pdes.horizon_extensions - b.pdes.horizon_extensions;
  d.pdes.critical_s = a.pdes.critical_s - b.pdes.critical_s;
  d.pdes.serial_s = a.pdes.serial_s - b.pdes.serial_s;
  d.pdes.barrier_wait_s = a.pdes.barrier_wait_s - b.pdes.barrier_wait_s;
  d.pdes.bound_recomputes = a.pdes.bound_recomputes - b.pdes.bound_recomputes;
  d.pdes.bound_cache_hits = a.pdes.bound_cache_hits - b.pdes.bound_cache_hits;
  return d;
}

constexpr int kTypeSlots = 8;  // trace type codes per category (max used: 6)

/// One shard's trace tally.  Only the thread running that shard touches it
/// (plus the round coordinator between phases, see LayerProbe), so there
/// are no shared counters; tallies are merged after the run.
struct alignas(64) LayerTally {
  std::array<std::array<std::uint64_t, kTypeSlots>, obs::kTraceCatCount>
      count{};
  std::array<std::int64_t, obs::kTraceCatCount> self_ns{};
  Clock::time_point last{};

  void charge(TraceCat cat, Clock::time_point now) {
    self_ns[static_cast<std::size_t>(cat)] += (now - last).count();
    last = now;
  }
};

/// Observer clock over every shard's trace sink.  Each interval between two
/// consecutive events of a shard is charged to the category of the event
/// that ends it.  The round coordinator emits kPdes events into shard 0's
/// sink while every shard is parked between phases; each of those charges
/// every shard's time since its last event (its barrier wait plus the
/// round plan) to pdes.
class LayerProbe {
 public:
  explicit LayerProbe(cluster::Scenario& s)
      : tallies_(static_cast<std::size_t>(s.shard_count())) {
    for (int k = 0; k < s.shard_count(); ++k) {
      LayerTally* t = &tallies_[static_cast<std::size_t>(k)];
      s.simulation(k).trace()->add_observer(
          [this, t](const obs::TraceEvent& e) { observe(*t, e); });
    }
  }
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;

  /// Zeroes every tally; call while the simulation is not running.
  void arm() {
    const Clock::time_point now = Clock::now();
    for (LayerTally& t : tallies_) {
      t = LayerTally{};
      t.last = now;
    }
  }

  LayerTally merged() const {
    LayerTally m;
    for (const LayerTally& t : tallies_) {
      for (std::size_t c = 0; c < obs::kTraceCatCount; ++c) {
        m.self_ns[c] += t.self_ns[c];
        for (std::size_t k = 0; k < kTypeSlots; ++k) {
          m.count[c][k] += t.count[c][k];
        }
      }
    }
    return m;
  }

 private:
  void observe(LayerTally& t, const obs::TraceEvent& e) {
    const Clock::time_point now = Clock::now();
    if (e.cat == TraceCat::kPdes) {
      for (LayerTally& other : tallies_) other.charge(TraceCat::kPdes, now);
    } else {
      t.charge(e.cat, now);
    }
    if (e.type < kTypeSlots) {
      ++t.count[static_cast<std::size_t>(e.cat)][e.type];
    }
  }

  std::vector<LayerTally> tallies_;
};

// --- JSON output -----------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
std::string num(std::uint64_t v) { return std::to_string(v); }

std::string field(const char* name, const std::string& value) {
  return std::string(", \"") + name + "\": " + value;
}

std::string counters_json(const Counters& c) {
  return "{\"events\": " + num(c.events) +
         field("migrations", num(c.migrations)) +
         field("switches", num(c.switches)) +
         field("fabric_posted", num(c.fabric_posted)) +
         field("periods_observed", num(c.periods)) +
         field("pdes_rounds", num(c.pdes.rounds)) +
         field("pdes_horizon_extensions", num(c.pdes.horizon_extensions)) +
         field("pdes_critical_s", num(c.pdes.critical_s)) +
         field("pdes_serial_s", num(c.pdes.serial_s)) +
         field("pdes_barrier_wait_s", num(c.pdes.barrier_wait_s)) +
         field("pdes_bound_recomputes", num(c.pdes.bound_recomputes)) +
         field("pdes_bound_cache_hits", num(c.pdes.bound_cache_hits)) + "}";
}

/// {"count": {"<cat>": {"<type>": n, ...}, ...}, "self_s": {"<cat>": s}},
/// keyed by the trace layer's own names (obs::cat_name / type_name).
std::string tally_json(const LayerTally& t) {
  std::string count, self;
  for (int c = 0; c < obs::kTraceCatCount; ++c) {
    const auto cat = static_cast<TraceCat>(c);
    std::string types;
    for (int k = 0; k < kTypeSlots; ++k) {
      const char* type = obs::type_name(cat, static_cast<std::uint8_t>(k));
      if (std::strcmp(type, "?") == 0) continue;
      types += (types.empty() ? "\"" : ", \"") + std::string(type) +
               "\": " + num(t.count[c][k]);
    }
    const std::string key = std::string("\"") + obs::cat_name(cat) + "\": ";
    count += (c ? ", " : "") + key + "{" + types + "}";
    self += (c ? ", " : "") + key + num(static_cast<double>(t.self_ns[c]) * 1e-9);
  }
  return "{\"count\": {" + count + "}, \"self_s\": {" + self + "}}";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--trace] [--smoke]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  long long seed = -1;
  bool traced = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      name = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::atoll(argv[++i]);
    } else if (a == "--trace") {
      traced = true;
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : smoke ? kSmokeWorkloads : kWorkloads) {
    if (name == cand.name) w = &cand;
  }
  if (w == nullptr || seed < 0) return usage(argv[0]);

  std::string out = "{\"workload\": \"" + std::string(w->name) + "\"";
  out += field("seed", num(static_cast<std::uint64_t>(seed)));
  out += field("nodes", std::to_string(w->nodes));
  out += field("shards", std::to_string(w->shards));
  out += field("threads", std::to_string(w->shards));
  out += field("host_cores", std::to_string(std::thread::hardware_concurrency()));
  out += field("build_type", "\"" ATCSIM_BUILD_TYPE "\"");
  out += field("warmup_sim_s", num(w->warmup_s));
  out += field("window_sim_s", num(w->window_s));

  std::unique_ptr<LayerProbe> probe;  // outlives the scenario it observes
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<cluster::Scenario> s =
      build(*w, static_cast<std::uint64_t>(seed));
  if (traced) {
    obs::TraceConfig cfg;
    cfg.capacity = 1;  // observers see every event; keep no ring
    s->enable_tracing(cfg);
    probe = std::make_unique<LayerProbe>(*s);
  }
  populate(*w, *s);
  s->start();
  out += field("setup_s", num(seconds_since(t0)));

  s->run_for(sim_time(w->warmup_s));
  s->metrics().reset_all();
  s->reset_platform_stats();
  const Counters before = read_counters(*s);
  if (probe) probe->arm();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const double cpu0 = process_cpu_s();
  const Clock::time_point t1 = Clock::now();
  s->run_for(sim_time(w->window_s));
  const double wall_s = seconds_since(t1);
  const double cpu_s = process_cpu_s() - cpu0;
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;
  const Counters delta = read_counters(*s) - before;

  std::uint64_t supersteps = 0;
  for (const std::string& key : s->bsp_keys()) {
    supersteps += s->metrics().durations(key + "/superstep").count();
  }
  out += field("wall_s", num(wall_s));
  out += field("cpu_s", num(cpu_s));
  out += field("allocs", num(allocs));
  out += field("counters", counters_json(delta));
  // What a correct simulator must reproduce for a seed: the window's event
  // count and the simulated outputs the paper's figures use.
  out += field(
      "digest",
      "{\"events\": " + num(delta.events) +
          field("supersteps", num(supersteps)) +
          field("migrations", num(delta.migrations)) +
          field("vc_superstep_s",
                num(s->mean_superstep_with_prefix(w->mixed ? "VC" : ""))) +
          field("spin_latency_s", num(s->avg_parallel_spin_latency())) +
          field("llc_miss_rate", num(s->llc_miss_rate())) + "}");
  if (probe) out += field("trace", tally_json(probe->merged()));
  out += field("peak_rss_mib", num(peak_rss_mib()));
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
