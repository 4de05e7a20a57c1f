// net_report: tracked performance trajectory for the cluster-scale I/O path.
//
// Every guest packet pays the paper's 11-step split-driver path (Fig. 4):
// src guest -> event channel -> src dom0 -> NIC -> wire -> dst NIC -> dst
// dom0 -> event channel -> dst guest.  The cluster-scale figure sweeps push
// millions of packets through that path, so — like the event core
// (BENCH_simcore.json) and the run queues (BENCH_sched.json) — it keeps a
// committed before/after record.  Two kinds of benchmark:
//
//  * pkt_path_n64 / pkt_path_n512: a ring of always-runnable guest VMs (one
//    per node) streaming fixed-size messages to the next node, every hop
//    through dom0 + NIC + wire.  Construction and a warm-up window run
//    untimed; the measured window reports delivered packets per wall second
//    and heap allocations per packet — the steady-state figure the pooled
//    packet descriptors are gated on.
//
//  * macro_cluster512_atc: the full 512-node type-A ATC simulation (engine,
//    network, BSP barriers, controllers), measured after a 50 ms warm-up so
//    the number is the steady state of the run, not scenario construction.
//    Reports simulator events per wall second and allocs per event.
//
//   net_report                          # print the run record to stdout
//   net_report --label x --append ../BENCH_net.json
//   net_report --quick                  # 64-node packet path only (CI smoke)
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "net/network.h"
#include "report_common.h"
#include "sched/credit.h"
#include "simcore/simulation.h"
#include "virt/platform.h"
#include "virt/vcpu.h"
#include "virt/vm.h"

namespace {

using namespace atcsim;
namespace rb = atcsim::bench;
using rb::Result;
using namespace sim::time_literals;

// ---------------------------------------------------------- packet pump ---

constexpr std::uint64_t kMsgBytes = 8 * 1024;
constexpr int kWindow = 2;  ///< in-flight packets per stream (keeps NIC busy)

/// Always-runnable guest: deposits are delivered as immediate IRQs, so the
/// benchmark measures the I/O path, not guest scheduling luck.
class BusyWorkload : public virt::Workload {
 public:
  virt::Action next(virt::Vcpu&) override {
    return virt::Action::compute(1_ms);
  }
  double cache_sensitivity() const override { return 0.0; }
  std::string name() const override { return "busy"; }
};

/// One guest VM per node; node i streams to node (i+1) % nodes, so every
/// packet crosses the full split-driver path including NIC and wire.
struct PktRig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::unique_ptr<net::VirtualNetwork> network;
  std::vector<std::unique_ptr<virt::Workload>> workloads;
  std::vector<virt::Vm*> guests;
  std::uint64_t delivered = 0;

  struct Stream {
    PktRig* rig;
    int src;
    int dst;
  };
  std::vector<Stream> streams;

  explicit PktRig(int nodes) {
    virt::PlatformConfig pc;
    pc.nodes = nodes;
    pc.pcpus_per_node = 2;
    pc.seed = 23;
    platform = std::make_unique<virt::Platform>(simulation, pc);
    network = std::make_unique<net::VirtualNetwork>(*platform);
    network->attach();
    streams.reserve(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      virt::Vm& vm = platform->create_vm(
          virt::NodeId{n}, virt::VmType::kNonParallel,
          std::string("g").append(std::to_string(n)), 1);
      workloads.push_back(std::make_unique<BusyWorkload>());
      vm.vcpus()[0]->set_workload(workloads.back().get());
      guests.push_back(&vm);
    }
    for (int n = 0; n < nodes; ++n) {
      platform->set_scheduler(virt::NodeId{n},
                              std::make_unique<sched::CreditScheduler>());
      streams.push_back(Stream{this, n, (n + 1) % nodes});
    }
    platform->engine().start();
    for (auto& st : streams) {
      for (int i = 0; i < kWindow; ++i) fire(&st);
    }
  }

  void fire(Stream* st) {
    network->send(*guests[static_cast<std::size_t>(st->src)],
                  *guests[static_cast<std::size_t>(st->dst)], kMsgBytes,
                  [this, st] {
                    ++delivered;
                    fire(st);
                  });
  }
};

/// Packets per wall second / allocs per packet through the full path,
/// measured over a post-warm-up window only (construction excluded).
Result pkt_path(int nodes, sim::SimTime horizon, int reps) {
  Result r;
  r.wall_s = 1e100;
  for (int i = 0; i < reps; ++i) {
    PktRig rig(nodes);
    rig.simulation.run_until(20_ms);  // warm-up: rings/pools at high water
    const std::uint64_t d0 = rig.delivered;
    const std::uint64_t a0 = rb::g_allocs.load(std::memory_order_relaxed);
    const auto t0 = rb::Clock::now();
    rig.simulation.run_until(20_ms + horizon);
    const double s =
        std::chrono::duration<double>(rb::Clock::now() - t0).count();
    const std::uint64_t n = rig.delivered - d0;
    const std::uint64_t allocs =
        rb::g_allocs.load(std::memory_order_relaxed) - a0;
    if (s < r.wall_s) {
      r.wall_s = s;
      r.events = n;
      r.allocs_per_event =
          n == 0 ? 0 : static_cast<double>(allocs) / static_cast<double>(n);
    }
  }
  r.per_sec = r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0;
  return r;
}

// ------------------------------------------------------- full-sim macro ---

/// End-to-end 512-node type-A cluster under ATC (the same cell
/// sched_report replays), measured after warm-up: simulator events per wall
/// second and allocs per event in the steady state of the whole model.
Result macro_cluster512(int reps, int shards) {
  Result r;
  r.wall_s = 1e100;
  for (int i = 0; i < reps; ++i) {
    auto sp = cluster::ScenarioBuilder{}
                  .nodes(512)
                  .pcpus_per_node(8)
                  .vms_per_node(4)
                  .vcpus_per_vm(8)
                  .approach(cluster::Approach::kATC)
                  .seed(7)
                  .shards(shards)
                  .build();
    cluster::Scenario& s = *sp;
    cluster::build_type_a(s, "lu", workload::NpbClass::kB);
    s.start();
    s.run_for(50_ms);  // warm-up: all pools, rings and mailboxes sized
    const std::uint64_t e0 = s.events_executed();
    const std::uint64_t a0 = rb::g_allocs.load(std::memory_order_relaxed);
    const auto t0 = rb::Clock::now();
    s.run_for(250_ms);
    const double secs =
        std::chrono::duration<double>(rb::Clock::now() - t0).count();
    const std::uint64_t n = s.events_executed() - e0;
    const std::uint64_t allocs =
        rb::g_allocs.load(std::memory_order_relaxed) - a0;
    if (secs < r.wall_s) {
      r.wall_s = secs;
      r.events = n;
      r.allocs_per_event =
          n == 0 ? 0 : static_cast<double>(allocs) / static_cast<double>(n);
    }
  }
  r.per_sec = r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "dev";
  std::string append_path;
  bool quick = false;
  int shards = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (a == "--append" && i + 1 < argc) {
      append_path = argv[++i];
    } else if (a == "--quick") {
      quick = true;  // 64-node packet path only (CI smoke on tiny runners)
    } else if (a == "--shards" && i + 1 < argc) {
      shards = std::atoi(argv[++i]);  // macro cell PDES shard count
    } else {
      std::fprintf(stderr,
                   "usage: %s [--label str] [--append BENCH_net.json] "
                   "[--quick] [--shards K]\n",
                   argv[0]);
      return 2;
    }
  }

  std::fprintf(stderr, "net_report: pkt_path_n64...\n");
  const Result p64 = pkt_path(64, 200_ms, 3);

  Result p512, macro512;
  if (!quick) {
    std::fprintf(stderr, "net_report: pkt_path_n512...\n");
    p512 = pkt_path(512, 50_ms, 2);
    std::fprintf(stderr, "net_report: macro_cluster512_atc...\n");
    macro512 = macro_cluster512(2, shards);
  }

  std::ostringstream run;
  run << "    {\n"
      << "      \"label\": \"" << label << "\",\n"
      << "      \"date\": \"" << rb::iso_now() << "\",\n"
      << "      \"build_type\": \"" << ATCSIM_BUILD_TYPE << "\",\n";
  rb::emit_result(run, "pkt_path_n64", p64, quick);
  if (!quick) {
    rb::emit_result(run, "pkt_path_n512", p512);
    rb::emit_result(run, "macro_cluster512_atc", macro512, true);
  }
  run << "    }";

  if (append_path.empty()) {
    std::printf("%s\n", run.str().c_str());
    return 0;
  }
  if (!rb::append_history(append_path, run.str(), "net")) return 1;
  std::fprintf(stderr, "net_report: wrote %s\n", append_path.c_str());
  return 0;
}
