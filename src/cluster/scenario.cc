#include "cluster/scenario.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

#include "simcore/parallel.h"

namespace atcsim::cluster {

using sim::SimTime;

namespace {

/// Initial capacity of each per-(src,dst) shard mailbox, in packets.  The
/// mailboxes retain their high-water capacity across rounds, so this only
/// sets the cold-start size of one round's cross-shard exchange batch.
constexpr std::size_t kPdesMailboxSlots = 256;

/// Smallest wire_latency — the cross-shard lookahead — a sharded scenario
/// accepts: rounds that advance less than this per barrier synchronize
/// more than they simulate.
constexpr SimTime kPdesLookaheadFloor = sim::kMicrosecond;

}  // namespace

/// Shard-local executor: one Simulation + fabric port, run by the
/// ShardGroup's round protocol.
class Scenario::ShardExec final : public sim::ShardExecutor {
 public:
  ShardExec(sim::Simulation& simulation, net::ShardFabric& fabric, int id)
      : sim_(&simulation), fabric_(&fabric), id_(id) {}

  sim::SimTime next_event_time() const override {
    return sim_->next_event_time();
  }
  sim::SimTime pending_inbound_time() const override {
    return fabric_->pending_due(id_);
  }
  void deliver_inbound(sim::SimTime watermark) override {
    fabric_->deliver_to(id_, watermark);
  }

  std::uint64_t advance_to(sim::SimTime horizon) override {
    // Interleave execution with sealed-packet delivery: a packet due at d
    // is handed to the network only once every local event at or before d
    // has run, so the event-queue interleaving at each timestamp — and
    // with it the merged trace — is a pure function of the simulation
    // state, not of how early a round's horizon made the packet
    // deliverable.  (Delivering everything up front at the phase start
    // would insert packet arrivals ahead of same-due local events in some
    // round structures and behind them in others.)
    std::uint64_t n = 0;
    for (;;) {
      const sim::SimTime due = fabric_->ready_due(id_);
      if (due > horizon) break;
      n += sim_->run_until(due);
      fabric_->deliver_to(id_, due);
    }
    return n + sim_->run_until(horizon);
  }

 private:
  sim::Simulation* sim_;
  net::ShardFabric* fabric_;
  int id_;
};

Scenario::Scenario(ScenarioConfig config)
    : config_(config),
      shard_threads_(sim::ShardGroup::resolve_threads(
          config.shard_threads, static_cast<std::size_t>(config.shards))),
      app_rng_(config.seed) {
  const int shards = config_.shards;

  // Cluster control plane: every shard gets a migration manager, unsharded
  // runs too, so scripted migrations work at any shard count.
  std::vector<std::int32_t> node_shard;
  node_shard.reserve(static_cast<std::size_t>(config_.nodes));
  for (int n = 0; n < config_.nodes; ++n) {
    node_shard.push_back(static_cast<std::int32_t>(shard_of_node(n)));
  }

  // Contiguous balanced node blocks: shard k owns base + (k < rem ? 1 : 0)
  // nodes starting at k * base + min(k, rem).  A stack touches only its
  // own objects, so each shard builds its own.
  const int base = config_.nodes / shards;
  const int rem = config_.nodes % shards;
  stacks_.resize(static_cast<std::size_t>(shards));
  sim::parallel_for(
      stacks_.size(),
      [&](std::size_t s) {
        const int k = static_cast<int>(s);
        auto stack = std::make_unique<ShardStack>();
        stack->first_node = k * base + std::min(k, rem);
        stack->node_count = base + (k < rem ? 1 : 0);
        virt::PlatformConfig pc;
        pc.nodes = stack->node_count;
        pc.pcpus_per_node = config_.pcpus_per_node;
        pc.params = config_.params;
        pc.seed = config_.seed;
        pc.node_id_offset = stack->first_node;
        stack->platform =
            std::make_unique<virt::Platform>(stack->simulation, pc);
        stack->network =
            std::make_unique<net::VirtualNetwork>(*stack->platform);
        stack->network->attach();
        stack->monitor =
            std::make_unique<sync::PeriodMonitor>(*stack->platform);
        stack->migrator =
            std::make_unique<control::Migrator>(*stack->network, node_shard);
        stacks_[s] = std::move(stack);
      },
      shard_threads_);
  metrics_ =
      std::make_unique<metrics::MetricsRegistry>(stacks_[0]->simulation);

  if (shards > 1) {
    fabric_ = std::make_unique<net::ShardFabric>(shards, kPdesMailboxSlots);
    for (int k = 0; k < shards; ++k) {
      fabric_->bind(k, *stacks_[static_cast<std::size_t>(k)]->network);
    }
  }
}

Scenario::~Scenario() = default;

int Scenario::shard_of_node(int node) const {
  assert(node >= 0 && node < config_.nodes);
  const int shards = config_.shards;
  const int base = config_.nodes / shards;
  const int rem = config_.nodes % shards;
  // First `rem` shards have base+1 nodes; invert the block layout.
  const int big_span = (base + 1) * rem;
  if (node < big_span) return node / (base + 1);
  return rem + (node - big_span) / base;
}

virt::Platform& Scenario::platform_of_node(int node) {
  return *stacks_[static_cast<std::size_t>(shard_of_node(node))]->platform;
}

virt::NodeId Scenario::local_node_id(int node) const {
  const auto& stack = *stacks_[static_cast<std::size_t>(shard_of_node(node))];
  return virt::NodeId{node - stack.first_node};
}

void Scenario::register_vm(virt::Vm& vm) { vm.set_global_id(next_gid_++); }

std::vector<virt::Vm*> Scenario::create_cluster_vms(
    const std::vector<int>& node_for_vm) {
  const std::size_t n = node_for_vm.size();
  std::vector<std::int32_t> vm_shard(n);
  bool spans_shards = false;
  for (std::size_t i = 0; i < n; ++i) {
    vm_shard[i] = static_cast<std::int32_t>(shard_of_node(node_for_vm[i]));
    spans_shards = spans_shards || vm_shard[i] != vm_shard[0];
  }
  const std::int64_t first_gid = next_gid_;
  next_gid_ += static_cast<std::int64_t>(n);

  // Shard s creates its VMs in index order, the order its platform saw
  // them one at a time.  parallel_for starts threads on each call, so a
  // cluster on one shard stays on the caller.
  std::vector<virt::Vm*> vms(n, nullptr);
  sim::parallel_for(
      stacks_.size(),
      [&](std::size_t s) {
        ShardStack& stack = *stacks_[s];
        for (std::size_t i = 0; i < n; ++i) {
          if (static_cast<std::size_t>(vm_shard[i]) != s) continue;
          virt::Vm& vm = stack.platform->create_vm(
              virt::NodeId{node_for_vm[i] - stack.first_node},
              virt::VmType::kParallel, config_.vcpus_per_vm);
          // Parallel VMs are network-driven: vSlicer's admin marks them LS.
          vm.set_latency_sensitive(true);
          vm.set_global_id(first_gid + static_cast<std::int64_t>(i));
          vms[i] = &vm;
        }
      },
      spans_shards ? shard_threads_ : 1);
  return vms;
}

workload::BspApp& Scenario::add_bsp_app(const std::string& key,
                                        const workload::Descriptor& desc,
                                        std::vector<virt::Vm*> vms) {
  add_bsp_apps({&key, 1}, desc, {&vms, 1});
  return *bsp_apps_.back();
}

void Scenario::add_bsp_apps(std::span<const std::string> keys,
                            const workload::Descriptor& desc,
                            std::span<std::vector<virt::Vm*>> clusters) {
  assert(!started_);
  assert(keys.size() == clusters.size());
  struct Draw {
    metrics::DurationRecorder* superstep;
    sim::Rng rng;
    std::unique_ptr<workload::BspApp> app;
  };
  std::vector<Draw> draws;
  draws.reserve(keys.size());
  for (const std::string& key : keys) {
    draws.push_back({&metrics_->durations(key + "/superstep"),
                     app_rng_.split(std::hash<std::string>{}(key)), nullptr});
  }
  // An app binds only its own cluster's VMs and VCPUs.
  sim::parallel_for(
      keys.size(),
      [&](std::size_t c) {
        Draw& d = draws[c];
        d.app = std::make_unique<workload::BspApp>(std::move(clusters[c]),
                                                   desc, d.rng, d.superstep);
        d.app->attach();
      },
      shard_threads_);
  for (std::size_t c = 0; c < keys.size(); ++c) {
    bsp_apps_.push_back(std::move(draws[c].app));
    bsp_keys_.push_back(keys[c]);
  }
}

void Scenario::add_identical_clusters(const workload::Descriptor& desc) {
  if (desc.parallel()) {
    std::vector<int> placement(static_cast<std::size_t>(config_.nodes));
    std::iota(placement.begin(), placement.end(), 0);
    std::vector<std::string> keys;
    std::vector<std::vector<virt::Vm*>> clusters;
    for (int j = 0; j < config_.vms_per_node; ++j) {
      clusters.push_back(create_cluster_vms(placement));
      keys.push_back(desc.name + "/vc" + std::to_string(j));
    }
    add_bsp_apps(keys, desc, clusters);
    return;
  }
  // Loop descriptors have no cross-VM coupling: fill the same VM slots with
  // independent single-VCPU interpreters instead.
  for (int j = 0; j < config_.vms_per_node; ++j) {
    for (int n = 0; n < config_.nodes; ++n) {
      add_loop_vm(n, desc,
                  desc.name + "/vc" + std::to_string(j) + "/n" +
                      std::to_string(n));
    }
  }
}

virt::Vm& Scenario::add_loop_vm(int node, const workload::Descriptor& desc,
                                const std::string& key) {
  assert(!started_);
  virt::Vm& vm = platform_of_node(node).create_vm(
      local_node_id(node), virt::VmType::kNonParallel, config_.vcpus_per_vm);
  register_vm(vm);
  workloads_.push_back(std::make_unique<workload::LoopWorkload>(
      vm, desc, app_rng_.split(std::hash<std::string>{}(key)),
      &metrics_->rate(key)));
  vm.vcpus()[0].set_workload(workloads_.back().get());
  return vm;
}

virt::Vm& Scenario::add_disk_vm(int node, const std::string& key) {
  assert(!started_);
  virt::Vm& vm = platform_of_node(node).create_vm(
      local_node_id(node), virt::VmType::kNonParallel, config_.vcpus_per_vm);
  register_vm(vm);
  workloads_.push_back(
      std::make_unique<workload::DiskWorkload>(vm, &metrics_->rate(key)));
  vm.vcpus()[0].set_workload(workloads_.back().get());
  return vm;
}

virt::Vm& Scenario::add_ping_pair(int node_a, int node_b,
                                  const std::string& key) {
  assert(!started_);
  virt::Vm& pinger = platform_of_node(node_a).create_vm(
      local_node_id(node_a), virt::VmType::kNonParallel, config_.vcpus_per_vm);
  virt::Vm& peer = platform_of_node(node_b).create_vm(
      local_node_id(node_b), virt::VmType::kNonParallel, config_.vcpus_per_vm);
  pinger.set_latency_sensitive(true);
  peer.set_latency_sensitive(true);
  register_vm(pinger);
  register_vm(peer);
  workloads_.push_back(std::make_unique<workload::PingWorkload>(
      pinger, peer, &metrics_->latency(key)));
  pinger.vcpus()[0].set_workload(workloads_.back().get());
  workloads_.push_back(std::make_unique<workload::IdleServerWorkload>());
  peer.vcpus()[0].set_workload(workloads_.back().get());
  return pinger;
}

virt::Vm& Scenario::add_web_vm(int node, double requests_per_second,
                               const std::string& key) {
  assert(!started_);
  virt::Vm& vm = platform_of_node(node).create_vm(
      local_node_id(node), virt::VmType::kNonParallel, config_.vcpus_per_vm);
  vm.set_latency_sensitive(true);
  register_vm(vm);
  auto server = std::make_unique<workload::WebServerWorkload>(
      vm, &metrics_->latency(key),
      app_rng_.split(std::hash<std::string>{}(key)));
  vm.vcpus()[0].set_workload(server.get());
  stack(shard_of_node(node))
      .clients.push_back(std::make_unique<workload::HttperfClient>(
          vm, *server, requests_per_second,
          app_rng_.split(std::hash<std::string>{}(key + "/client"))));
  workloads_.push_back(std::move(server));
  return vm;
}

obs::TraceSink& Scenario::enable_tracing(obs::TraceConfig cfg) {
  for (auto& stack : stacks_) {
    if (stack->trace_sink == nullptr) {
      stack->trace_sink = std::make_unique<obs::TraceSink>(cfg);
      stack->simulation.set_trace(stack->trace_sink.get());
    }
  }
  return *stacks_[0]->trace_sink;
}

obs::InvariantChecker& Scenario::enable_invariants() {
  enable_tracing();
  obs::InvariantLimits limits;
  limits.min_slice = config_.params.min_time_slice;
  limits.slice_jitter = config_.params.slice_jitter;
  limits.credit_clip = config_.params.credit_clip;
  for (auto& stack : stacks_) {
    if (stack->invariants == nullptr) {
      stack->invariants = std::make_unique<obs::InvariantChecker>(
          *stack->trace_sink, limits);
    }
  }
  return *stacks_[0]->invariants;
}

std::vector<const obs::TraceSink*> Scenario::trace_sinks() const {
  std::vector<const obs::TraceSink*> sinks;
  for (const auto& stack : stacks_) {
    if (stack->trace_sink != nullptr) sinks.push_back(stack->trace_sink.get());
  }
  return sinks;
}

void Scenario::start() {
  assert(!started_);
  started_ = true;
  // Each step arms events on its own shard's queue only, in the order one
  // thread would: approach, period monitor, HTTP clients, engine.
  sim::parallel_for(
      stacks_.size(),
      [this](std::size_t s) {
        ShardStack& stack = *stacks_[s];
        stack.runtime =
            install_approach(*stack.platform, *stack.monitor, *stack.migrator,
                             config_.approach, config_.atc);
        stack.monitor->start([rt = &stack.runtime] { rt->on_period(); });
        for (auto& client : stack.clients) client->start();
        stack.platform->engine().start();
      },
      shard_threads_);

  if (config_.shards > 1) {
    executors_.reserve(stacks_.size());
    std::vector<sim::ShardExecutor*> execs;
    for (std::size_t k = 0; k < stacks_.size(); ++k) {
      executors_.push_back(std::make_unique<ShardExec>(
          stacks_[k]->simulation, *fabric_, static_cast<int>(k)));
      execs.push_back(executors_.back().get());
    }
    sim::ShardGroup::Options opts;
    // Every cross-shard packet pays at least one wire latency after its
    // source-NIC completion, so that delay is the safe lookahead.
    opts.lookahead = config_.params.wire_latency;
    opts.threads = config_.shard_threads;
    opts.round_prologue = [fabric = fabric_.get()] { fabric->seal_round(); };
    // Round events land in shard 0's sink (enable_tracing runs before
    // start(), so the pointer is final here; null stays null).
    opts.trace = stacks_[0]->trace_sink.get();
    group_ = std::make_unique<sim::ShardGroup>(std::move(execs), opts);
  }
}

void Scenario::run_for(SimTime duration) {
  assert(started_);
  if (group_ == nullptr) {
    stacks_[0]->simulation.run_until(stacks_[0]->simulation.now() + duration);
    return;
  }
  // All shard clocks are aligned between calls (run_until's final phase).
  group_->run_until(stacks_[0]->simulation.now() + duration);
}

void Scenario::schedule_migration(virt::Vm& vm, SimTime at, int dest_node) {
  assert(dest_node >= 0 && dest_node < config_.nodes);
  assert(vm.global_id() >= 0 && "schedule_migration needs a scenario VM");
  const int src_node =
      vm.node().platform().global_node_id(vm.node());
  ShardStack* stack = &this->stack(shard_of_node(src_node));
  virt::Vm* vmp = &vm;
  // The order reaches the shard's platform and migrator through its
  // heap-stable stack, which keeps the capture within InlineCallback's
  // 24 bytes.
  stack->simulation.call_at(at, [stack, vmp, dest_node] {
    // Skip silently if the VM is in transit, moved off this shard or became
    // unmigratable (can_migrate checks residency before it reads the VM,
    // which another shard may be adopting), or already sits on the target.
    if (!stack->migrator->can_migrate(*vmp)) return;
    if (stack->platform->global_node_id(vmp->node()) == dest_node) return;
    stack->migrator->migrate(*vmp, dest_node);
  });
}

void Scenario::warmup_and_measure(SimTime warmup, SimTime measure) {
  if (!started_) start();
  run_for(warmup);
  metrics_->reset_all();
  reset_platform_stats();
  run_for(measure);
}

void Scenario::reset_platform_stats() {
  for (auto& stack : stacks_) {
    virt::Platform& platform = *stack->platform;
    for (std::size_t id = 0; id < platform.vm_count(); ++id) {
      // vm_ptr: migrated-away VMs leave tombstone ids behind.
      virt::Vm* vm = platform.vm_ptr(virt::VmId{static_cast<std::int32_t>(id)});
      if (vm != nullptr) vm->totals() = virt::Vm::Totals{};
    }
  }
  stats_reset_at_ = stacks_[0]->simulation.now();
}

std::uint64_t Scenario::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& stack : stacks_) total += stack->simulation.events_executed();
  return total;
}

std::vector<virt::Vm*> Scenario::guest_vms() const {
  std::vector<virt::Vm*> out;
  for (const auto& stack : stacks_) {
    for (virt::Vm* vm : stack->platform->guest_vms()) out.push_back(vm);
  }
  return out;
}

double Scenario::mean_superstep(const std::string& key) const {
  const metrics::DurationRecorder* steps =
      metrics_->find_durations(key + "/superstep");
  return steps == nullptr ? 0.0 : steps->mean_seconds();
}

double Scenario::mean_superstep_with_prefix(const std::string& prefix) const {
  double sum = 0.0;
  int n = 0;
  for (const auto& key : bsp_keys_) {
    if (key.rfind(prefix, 0) != 0) continue;
    const double m = mean_superstep(key);
    if (m > 0.0) {
      sum += m;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / n;
}

double Scenario::avg_parallel_spin_latency() {
  sim::SimTime wall = 0;
  std::uint64_t episodes = 0;
  for (auto& stack : stacks_) {
    virt::Platform& platform = *stack->platform;
    for (std::size_t id = 0; id < platform.vm_count(); ++id) {
      const virt::Vm* vm =
          platform.vm_ptr(virt::VmId{static_cast<std::int32_t>(id)});
      if (vm == nullptr || !vm->is_parallel()) continue;
      wall += vm->totals().spin_wall;
      episodes += vm->totals().spin_episodes;
    }
  }
  if (episodes == 0) return 0.0;
  return sim::to_seconds(wall) / static_cast<double>(episodes);
}

double Scenario::llc_miss_rate() {
  std::uint64_t misses = 0;
  for (auto& stack : stacks_) {
    virt::Platform& platform = *stack->platform;
    for (std::size_t id = 0; id < platform.vm_count(); ++id) {
      const virt::Vm* vm =
          platform.vm_ptr(virt::VmId{static_cast<std::int32_t>(id)});
      if (vm != nullptr) misses += vm->totals().llc_misses;
    }
  }
  const SimTime span = stacks_[0]->simulation.now() - stats_reset_at_;
  if (span <= 0) return 0.0;
  return static_cast<double>(misses) / sim::to_seconds(span);
}

ScenarioConfig ScenarioBuilder::validated() const {
  auto require_positive = [](int v, const char* what) {
    if (v <= 0) {
      throw std::invalid_argument(std::string(what) + " must be positive, got " +
                                  std::to_string(v));
    }
  };
  require_positive(config_.nodes, "nodes");
  require_positive(config_.pcpus_per_node, "pcpus_per_node");
  require_positive(config_.vms_per_node, "vms_per_node");
  require_positive(config_.vcpus_per_vm, "vcpus_per_vm");
  require_positive(config_.shards, "shards");
  // A VCPU's run-queue link stores the PCPU index in 16 bits.
  if (config_.pcpus_per_node > INT16_MAX) {
    throw std::invalid_argument(
        std::string("pcpus_per_node must be at most ") +
        std::to_string(INT16_MAX) + ", got " +
        std::to_string(config_.pcpus_per_node));
  }
  if (!allow_wide_vms_ && config_.vcpus_per_vm > config_.pcpus_per_node) {
    throw std::invalid_argument(
        "vcpus_per_vm (" + std::to_string(config_.vcpus_per_vm) +
        ") exceeds pcpus_per_node (" + std::to_string(config_.pcpus_per_node) +
        "); a VM wider than its host cannot run all VCPUs concurrently — "
        "call allow_wide_vms() if this overcommit is intentional");
  }
  if (config_.shards > config_.nodes) {
    throw std::invalid_argument(
        "shards (" + std::to_string(config_.shards) + ") exceeds nodes (" +
        std::to_string(config_.nodes) +
        "); a shard must own at least one node");
  }
  if (config_.shards > 1 && config_.params.wire_latency < kPdesLookaheadFloor) {
    throw std::invalid_argument(
        "wire_latency (" + std::to_string(config_.params.wire_latency) +
        " ns) is below the " + std::to_string(kPdesLookaheadFloor) +
        " ns PDES lookahead floor; conservative rounds would synchronize "
        "more than they simulate — raise the latency or run unsharded");
  }
  return config_;
}

std::unique_ptr<Scenario> ScenarioBuilder::build() const {
  std::unique_ptr<Scenario> scenario(new Scenario(validated()));
  if (trace_) scenario->enable_tracing(trace_cfg_);
  if (invariants_) scenario->enable_invariants();
  return scenario;
}

}  // namespace atcsim::cluster
