#include "exp/runner.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "exp/bench_util.h"
#include "obs/export.h"
#include "simcore/parallel.h"

namespace atcsim::exp {

namespace {

std::string trace_root() {
  if (const char* env = std::getenv("ATCSIM_TRACE_DIR")) return env;
  return "traces";
}

// Trial label with path separators flattened, usable as a file stem.
std::string trace_stem(const Trial& t) {
  std::string s = t.label();
  for (char& c : s) {
    if (c == '/') c = '_';
  }
  return s;
}

/// Serialized progress/ETA reporting ("[12/60] 20% elapsed 3.2s eta 13.1s").
class Progress {
 public:
  Progress(std::size_t total, bool enabled)
      : total_(total), enabled_(enabled && total > 0),
        start_(std::chrono::steady_clock::now()) {
    if (!enabled_) return;
    std::fprintf(stderr, "exp: %zu trials\n", total_);
  }

  void tick(const Trial& t) {
    if (!enabled_) return;
    std::lock_guard lock(mu_);
    ++done_;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double eta =
        done_ == 0 ? 0.0
                   : elapsed / static_cast<double>(done_) *
                         static_cast<double>(total_ - done_);
    std::fprintf(stderr, "exp: [%zu/%zu] %3.0f%% %-40s elapsed %.1fs eta %.1fs\n",
                 done_, total_, 100.0 * static_cast<double>(done_) /
                                    static_cast<double>(total_),
                 t.label().c_str(), elapsed, eta);
  }

 private:
  std::size_t total_;
  bool enabled_;
  std::chrono::steady_clock::time_point start_;
  std::mutex mu_;
  std::size_t done_ = 0;
};

}  // namespace

TrialResult run_type_a_trial(const Trial& t, const atc::AtcConfig& atc_cfg) {
  cluster::ScenarioBuilder builder;
  builder.nodes(t.nodes)
      .pcpus_per_node(t.pcpus_per_node)
      .vms_per_node(t.vms_per_node)
      .vcpus_per_vm(t.vcpus)
      .allow_wide_vms()  // motivation layouts run 16-VCPU VMs on 8 PCPUs
      .approach(t.approach)
      .atc(atc_cfg)
      .seed(t.seed())
      .shards(t.shards);
  if (t.trace) builder.tracing().check_invariants();
  auto s = builder.build();
  if (!t.descriptor.empty()) {
    cluster::build_type_a(*s, workload::Descriptor::parse(t.descriptor));
  } else {
    cluster::build_type_a(*s, t.app, t.cls);
  }
  s->start();
  if (t.slice >= 0) set_global_guest_slice(*s, t.slice);
  s->warmup_and_measure(t.warmup, t.measure);

  TrialResult r;
  r.trial_id = t.id;
  // Descriptor trials key their metrics by the descriptor's workload name
  // (t.app); NPB trials keep the app + class prefix.
  const std::string prefix =
      t.descriptor.empty() ? t.app + workload::npb_class_suffix(t.cls) : t.app;
  r.metrics["superstep_s"] = s->mean_superstep_with_prefix(prefix);
  r.metrics["spin_s"] = s->avg_parallel_spin_latency();
  r.metrics["llc_miss_per_s"] = s->llc_miss_rate();
  r.metrics["events"] = static_cast<double>(s->events_executed());
  if (t.trace && s->trace_sink() != nullptr) {
    obs::write_trace_files(s->trace_sinks(), trace_root(), trace_stem(t));
    std::uint64_t emitted = 0;
    for (const obs::TraceSink* sink : s->trace_sinks()) {
      emitted += sink->emitted();
    }
    r.metrics["trace_events"] = static_cast<double>(emitted);
  }
  return r;
}

std::vector<TrialResult> run_sweep(const SweepSpec& spec, const TrialFn& fn,
                                   const RunOptions& opts) {
  const std::vector<Trial> trials = expand(spec);
  std::vector<TrialResult> results(trials.size());
  Progress progress(trials.size(), opts.progress);
  sim::parallel_for(
      trials.size(),
      [&](std::size_t i) {
        const Trial& t = trials[i];
        TrialResult r = fn(t);
        r.trial_id = t.id;
        progress.tick(t);
        results[i] = std::move(r);
      },
      opts.threads);
  return results;
}

}  // namespace atcsim::exp
