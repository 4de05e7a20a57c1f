#include "exp/type_a.h"

#include <cstdlib>
#include <stdexcept>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "exp/bench_util.h"
#include "obs/export.h"

namespace atcsim::exp {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string trace_root() {
  if (const char* env = std::getenv("ATCSIM_TRACE_DIR")) return env;
  return "traces";
}

}  // namespace

TypeAResult run_type_a(const TypeACell& c, const atc::AtcConfig& atc_cfg) {
  cluster::ScenarioBuilder builder;
  builder.nodes(c.nodes)
      .vcpus_per_vm(c.vcpus)
      .allow_wide_vms()  // motivation layouts run 16-VCPU VMs on 8 PCPUs
      .approach(c.approach)
      .atc(atc_cfg)
      .params(c.params)
      .seed(c.seed)
      .shards(c.shards);
  const bool traced = !c.trace_stem.empty();
  if (traced) builder.tracing().check_invariants();
  auto s = builder.build();
  if (c.workload) {
    cluster::build_type_a(*s, *c.workload);
  } else {
    cluster::build_type_a(*s, c.app, c.cls);
  }
  s->start();
  if (c.slice) set_global_guest_slice(*s, *c.slice);
  s->warmup_and_measure(c.warmup, c.measure);

  TypeAResult r;
  r.superstep_s = s->mean_superstep_with_prefix(
      c.workload ? c.workload->name
                 : c.app + workload::npb_class_suffix(c.cls));
  r.spin_s = s->avg_parallel_spin_latency();
  r.llc_miss_per_s = s->llc_miss_rate();
  r.events = s->events_executed();
  if (traced) {
    const std::string dir = trace_root();
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

std::uint64_t rep_seed(std::uint64_t base, int rep) {
  if (rep == 0) return base;
  return splitmix64(base ^ splitmix64(static_cast<std::uint64_t>(rep)));
}

}  // namespace atcsim::exp
