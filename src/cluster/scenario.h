// Scenario: one complete simulated experiment configuration.
//
// Owns the simulation state, platform(s), network(s), monitor(s), scheduling
// approach, applications and metrics for a single run.  Benches construct a
// Scenario per (approach x workload x scale) cell through ScenarioBuilder,
// run warmup + measurement, and read the recorders.
//
// Sharded runs (DESIGN.md §10): with shards = K > 1 the cluster's nodes are
// carved into K contiguous blocks, each backed by a full per-shard stack
// (Simulation + Platform + VirtualNetwork + PeriodMonitor).  Cross-shard
// packets travel through a ShardFabric and the run advances in conservative
// PDES rounds driven by a ShardGroup; the public surface below hides all of
// that — run_for()/warmup_and_measure() behave identically at any K.  Every
// K draws from the same RNG streams (per-node streams keyed by global node
// id, plus one scenario-owned app stream), so metrics do not depend on K;
// shards = 1 runs its single stack directly, without a ShardGroup.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "atc/config.h"
#include "cluster/approach.h"
#include "cluster/control/migrator.h"
#include "metrics/recorders.h"
#include "net/fabric.h"
#include "net/network.h"
#include "obs/invariants.h"
#include "simcore/shard.h"
#include "sync/period_monitor.h"
#include "virt/migration.h"
#include "virt/platform.h"
#include "workload/apps.h"
#include "workload/bsp_app.h"

namespace atcsim::cluster {

/// Validated scenario configuration.  Produced by
/// ScenarioBuilder::validated(); Scenario construction is only reachable
/// through the builder, which is what guarantees every Scenario in the tree
/// was validated first.
struct ScenarioConfig {
  int nodes = 2;
  int pcpus_per_node = 8;
  int vms_per_node = 4;
  int vcpus_per_vm = 8;
  Approach approach = Approach::kCR;
  atc::AtcConfig atc;
  virt::ModelParams params;
  std::uint64_t seed = 1;
  /// Conservative-PDES shard count; 1 = classic single-threaded run.
  int shards = 1;
  /// Worker threads for the shard group; 0 = min(shards, hardware).
  std::size_t shard_threads = 0;
};

class Scenario {
 public:
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  // --- construction (all before start()) --------------------------------

  /// Creates the VMs of one virtual cluster; `node_for_vm[i]` hosts VM i
  /// (global node indices — the shard map is applied internally).
  std::vector<virt::Vm*> create_cluster_vms(const std::string& name,
                                            const std::vector<int>& node_for_vm);

  /// Binds a BSP application, built from a parallel (barrier-terminated)
  /// descriptor, to cluster VMs; recorders are registered under `key`
  /// ("<key>/superstep", "<key>/iteration").
  workload::BspApp& add_bsp_app(const std::string& key,
                                const workload::Descriptor& desc,
                                std::vector<virt::Vm*> vms);

  /// One VM per (node, slot) of `vms_per_node` slots — the paper's type-A
  /// and motivation layout.  A parallel descriptor makes identical virtual
  /// clusters, cluster j = VM j of every node, under keys "<name>/vc<j>";
  /// a loop descriptor fills every (node, slot) with an independent
  /// single-VCPU LoopWorkload VM under keys "<name>/vc<j>/n<i>".
  void add_identical_clusters(const workload::Descriptor& desc);

  /// Independent non-parallel VMs (one app VCPU each).  add_loop_vm
  /// interprets a loop (non-barrier) descriptor, e.g. a
  /// workload::cpu_descriptor profile; work-rate units are recorded under
  /// `key` when the descriptor sets rate_units.
  virt::Vm& add_loop_vm(int node, const workload::Descriptor& desc,
                        const std::string& key);
  virt::Vm& add_disk_vm(int node, const std::string& key);
  /// Pinger on node_a, echo peer on node_b.  RTT recorded under `key`.
  virt::Vm& add_ping_pair(int node_a, int node_b, const std::string& key);
  virt::Vm& add_web_vm(int node, double requests_per_second,
                       const std::string& key);

  // --- observability ------------------------------------------------------

  /// Attaches a structured trace sink (one per shard) and returns shard 0's.
  /// Idempotent; call before start() so startup events are captured too.
  obs::TraceSink& enable_tracing(obs::TraceConfig cfg = {});

  /// Enables the runtime invariant checker over every shard's trace stream
  /// (implies enable_tracing()).  Limits are derived from this scenario's
  /// ModelParams.  Idempotent.
  obs::InvariantChecker& enable_invariants();

  obs::TraceSink* trace_sink() { return stacks_[0]->trace_sink.get(); }
  /// All shards' sinks in shard order (empty entries filtered out); feed to
  /// obs::write_trace_files to get one merged, time-ordered artifact.
  std::vector<const obs::TraceSink*> trace_sinks() const;
  obs::InvariantChecker* invariants() {
    return stacks_[0]->invariants.get();
  }

  // --- lifecycle ----------------------------------------------------------

  /// Installs the approach, starts monitors/clients/engines (and the shard
  /// group when shards > 1).  Call once.
  void start();

  void run_for(sim::SimTime duration);

  /// Schedules a scripted live migration of `vm` (created by this scenario)
  /// to global node `dest_node` at simulated time `at`.  The move is a
  /// no-op if the VM is not migratable at that instant (in transit, I/O
  /// pinned, or hosted by a non-migrating scheduler) or has already moved
  /// off the shard that owned it at scheduling time.  Call any time before
  /// the simulation passes `at`.
  void schedule_migration(virt::Vm& vm, sim::SimTime at, int dest_node);

  /// Runs `warmup` (controller convergence), resets all metrics and
  /// platform counters, then runs `measure`.
  void warmup_and_measure(sim::SimTime warmup, sim::SimTime measure);

  // --- results ------------------------------------------------------------

  metrics::MetricsRegistry& metrics() { return *metrics_; }
  const ScenarioConfig& config() const { return config_; }
  int shard_count() const { return config_.shards; }

  /// Shard 0's stack — the whole stack in unsharded runs.  Code that must
  /// see every shard uses the indexed overloads / aggregate helpers below.
  virt::Platform& platform() { return *stacks_[0]->platform; }
  sim::Simulation& simulation() { return stacks_[0]->simulation; }
  net::VirtualNetwork& network() { return *stacks_[0]->network; }

  virt::Platform& platform(int shard) { return *stack(shard).platform; }
  sim::Simulation& simulation(int shard) { return stack(shard).simulation; }
  net::VirtualNetwork& network(int shard) { return *stack(shard).network; }

  /// Controllers installed by start() on shard 0 (per-shard runtimes exist
  /// for every shard; the Scenario owns them all for its whole lifetime).
  const ApproachRuntime& approach_runtime() const {
    return stacks_[0]->runtime;
  }

  /// Cross-shard fabric; nullptr in unsharded runs.
  const net::ShardFabric* fabric() const { return fabric_.get(); }
  /// Shard `shard`'s migration manager (always present).
  control::Migrator& migrator(int shard = 0) {
    return *stack(shard).migrator;
  }
  /// Shard `shard`'s VM location directory (always present).
  const virt::LocationDirectory& directory(int shard = 0) {
    return *stack(shard).directory;
  }
  /// Round synchronizer; nullptr until start(), and in unsharded runs.
  const sim::ShardGroup* shard_group() const { return group_.get(); }

  /// Events executed across all shards.
  std::uint64_t events_executed() const;
  /// All guest (non-dom0) VMs across all shards, shard-then-id order.
  std::vector<virt::Vm*> guest_vms() const;

  /// Mean superstep seconds of one app key; 0 when nothing recorded.
  double mean_superstep(const std::string& key);
  /// Mean superstep seconds averaged over every key with `prefix`.
  double mean_superstep_with_prefix(const std::string& prefix);
  /// Wall spin latency per episode averaged over all parallel VMs (s).
  double avg_parallel_spin_latency();
  /// Platform-wide LLC misses per second of simulated time since reset.
  double llc_miss_rate();
  /// All BSP app keys registered, in creation order.
  const std::vector<std::string>& bsp_keys() const { return bsp_keys_; }

  /// Zeroes VM/VCPU cumulative counters (warmup exclusion).
  void reset_platform_stats();

 private:
  friend class ScenarioBuilder;

  /// One shard's engine stack.  Unsharded scenarios have exactly one.
  struct ShardStack {
    sim::Simulation simulation;
    std::unique_ptr<virt::Platform> platform;
    std::unique_ptr<net::VirtualNetwork> network;
    std::unique_ptr<sync::PeriodMonitor> monitor;
    std::unique_ptr<obs::TraceSink> trace_sink;
    std::unique_ptr<obs::InvariantChecker> invariants;
    /// Every shard's replica maps every guest gid (cluster control plane).
    std::unique_ptr<virt::LocationDirectory> directory;
    std::unique_ptr<control::Migrator> migrator;
    ApproachRuntime runtime;
    int first_node = 0;  ///< global id of this shard's first node
    int node_count = 0;
  };
  class ShardExec;

  explicit Scenario(ScenarioConfig config);

  ShardStack& stack(int shard) {
    return *stacks_[static_cast<std::size_t>(shard)];
  }
  /// Shard owning global node `node` (contiguous balanced blocks).
  int shard_of_node(int node) const;
  virt::Platform& platform_of_node(int node);
  virt::NodeId local_node_id(int node) const;
  static net::VirtualNetwork& net_of(virt::Vm& vm);
  /// Assigns the next global id to `vm` (hosted on global node `node`) and
  /// registers it in every shard's location directory.
  void register_vm(virt::Vm& vm, int node);

  ScenarioConfig config_;
  std::vector<std::unique_ptr<ShardStack>> stacks_;
  std::unique_ptr<metrics::MetricsRegistry> metrics_;
  std::unique_ptr<net::ShardFabric> fabric_;
  std::vector<std::unique_ptr<ShardExec>> executors_;
  std::unique_ptr<sim::ShardGroup> group_;
  /// App-level RNG: every workload is seeded with a split keyed by its app
  /// key, so app randomness is independent of the shard map too.
  sim::Rng app_rng_;
  std::vector<std::unique_ptr<workload::BspApp>> bsp_apps_;
  std::vector<std::unique_ptr<virt::Workload>> workloads_;
  std::vector<std::unique_ptr<workload::HttperfClient>> clients_;
  std::vector<std::string> bsp_keys_;
  sim::SimTime stats_reset_at_ = 0;
  std::int64_t next_gid_ = 0;
  bool started_ = false;
};

/// Fluent, validating Scenario factory — the only way to construct a
/// Scenario:
///
///   auto s = ScenarioBuilder{}
///                .nodes(8)
///                .approach(Approach::kATC)
///                .atc(cfg)
///                .shards(4)
///                .seed(7)
///                .build();
///
/// build() / validated() throw std::invalid_argument on non-positive counts,
/// when vcpus_per_vm exceeds pcpus_per_node, or on an unusable shard count
/// (shards < 1, shards > nodes, or a wire latency below the PDES lookahead
/// floor).  The paper's motivation experiments deliberately run 16-VCPU VMs
/// on 8-PCPU nodes; opt into such shapes explicitly with allow_wide_vms().
class ScenarioBuilder {
 public:
  ScenarioBuilder& nodes(int n) { return set(config_.nodes, n); }
  ScenarioBuilder& pcpus_per_node(int n) {
    return set(config_.pcpus_per_node, n);
  }
  ScenarioBuilder& vms_per_node(int n) { return set(config_.vms_per_node, n); }
  ScenarioBuilder& vcpus_per_vm(int n) { return set(config_.vcpus_per_vm, n); }
  ScenarioBuilder& approach(Approach a) {
    config_.approach = a;
    return *this;
  }
  ScenarioBuilder& atc(const atc::AtcConfig& cfg) {
    config_.atc = cfg;
    return *this;
  }
  ScenarioBuilder& params(const virt::ModelParams& p) {
    config_.params = p;
    return *this;
  }
  ScenarioBuilder& seed(std::uint64_t s) {
    config_.seed = s;
    return *this;
  }
  /// Conservative-PDES shard count (1 = classic single-threaded run).
  ScenarioBuilder& shards(int k) {
    config_.shards = k;
    return *this;
  }
  /// Worker threads for sharded runs; 0 = min(shards, hardware cores).
  ScenarioBuilder& shard_threads(std::size_t t) {
    config_.shard_threads = t;
    return *this;
  }
  /// Permits vcpus_per_vm > pcpus_per_node (wide-VM overcommit).
  ScenarioBuilder& allow_wide_vms() {
    allow_wide_vms_ = true;
    return *this;
  }
  /// build() attaches a trace sink with `cfg` before returning.
  ScenarioBuilder& tracing(obs::TraceConfig cfg = {}) {
    trace_ = true;
    trace_cfg_ = cfg;
    return *this;
  }
  /// build() enables the invariant checker (implies tracing()).
  ScenarioBuilder& check_invariants() {
    invariants_ = true;
    return *this;
  }

  /// The validated config; throws std::invalid_argument on bad parameters.
  ScenarioConfig validated() const;

  /// Validates and constructs the Scenario.
  std::unique_ptr<Scenario> build() const;

 private:
  ScenarioBuilder& set(int& field, int v) {
    field = v;
    return *this;
  }

  ScenarioConfig config_;
  bool allow_wide_vms_ = false;
  bool trace_ = false;
  obs::TraceConfig trace_cfg_;
  bool invariants_ = false;
};

}  // namespace atcsim::cluster
