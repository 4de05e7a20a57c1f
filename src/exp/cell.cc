#include "exp/cell.h"

#include <cstdlib>
#include <stdexcept>

#include "cluster/scenarios.h"
#include "obs/export.h"
#include "simcore/parallel.h"

namespace atcsim::exp {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

CellResult run_cell(const Cell& c) {
  cluster::ScenarioBuilder builder = c.builder;
  const bool traced = !c.trace_stem.empty();
  if (traced) builder.tracing().check_invariants();
  auto s = builder.build();
  if (c.layout) c.layout(*s);
  s->start();
  if (c.slice) {
    for (virt::Vm* vm : s->guest_vms()) vm->set_time_slice(*c.slice);
  }
  s->warmup_and_measure(c.warmup, c.measure);

  CellResult r;
  for (const auto& key : s->bsp_keys()) {
    r.supersteps.emplace_back(key, s->mean_superstep(key));
  }
  for (const auto& [key, rate] : s->metrics().all_rates()) {
    r.rates.emplace(key, rate.per_second());
  }
  r.latencies = s->metrics().all_latencies();
  r.spin_s = s->avg_parallel_spin_latency();
  r.llc_miss_per_s = s->llc_miss_rate();
  r.events = s->events_executed();
  for (int k = 0; k < s->shard_count(); ++k) {
    r.migrations += s->migrator(k).migrations_started();
  }
  if (traced) {
    const char* env = std::getenv("ATCSIM_TRACE_DIR");
    const std::string dir = env != nullptr ? env : "traces";
    if (!obs::write_trace_files(s->trace_sinks(), dir, c.trace_stem)) {
      throw std::runtime_error("cannot write trace files " + c.trace_stem +
                               ".{trace,json} under " + dir);
    }
    for (const obs::TraceSink* sink : s->trace_sinks()) {
      r.trace_events += sink->emitted();
    }
  }
  return r;
}

}  // namespace

double CellResult::superstep(const std::string& key) const {
  for (const auto& [k, mean] : supersteps) {
    if (k == key) return mean;
  }
  return 0.0;
}

double CellResult::mean_superstep(const std::string& prefix) const {
  double sum = 0.0;
  int n = 0;
  for (const auto& [key, mean] : supersteps) {
    if (key.rfind(prefix, 0) != 0 || !(mean > 0.0)) continue;
    sum += mean;
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

Cell type_a(const workload::Descriptor& desc) {
  Cell c;
  c.layout = [desc](cluster::Scenario& s) { cluster::build_type_a(s, desc); };
  return c;
}

std::vector<CellResult> run_cells(const std::vector<Cell>& cells,
                                  std::size_t threads) {
  std::vector<CellResult> results(cells.size());
  sim::parallel_for(
      cells.size(), [&](std::size_t i) { results[i] = run_cell(cells[i]); },
      threads);
  return results;
}

std::uint64_t rep_seed(std::uint64_t base, int rep) {
  if (rep == 0) return base;
  return splitmix64(base ^ splitmix64(static_cast<std::uint64_t>(rep)));
}

}  // namespace atcsim::exp
