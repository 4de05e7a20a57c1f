// sched_report: tracked performance trajectory for the credit-scheduler run
// queues at cluster scale.
//
// The paper's sweeps execute run-queue operations billions of times (every
// dispatch, wake, block, steal and refill goes through them), so the
// scheduler rewrite keeps a before/after record the same way the event core
// does.  Two kinds of benchmark:
//
//  * rq_*: the place/enqueue/pick operation profile of CreditScheduler,
//    replayed over both run-queue structures — sched::LinearRunQueues (the
//    pre-rewrite linear-scan implementation, preserved verbatim in
//    run_queue_ref.h) and sched::IndexedRunQueues (the O(1)-membership
//    rewrite) — at 512- and 1024-node scale.  Identical op sequences; the
//    drain fingerprints are cross-checked so the two structures provably
//    did the same work.  "speedup_*" = indexed / linear ops per second.
//
//  * macro_cluster512_atc: a full 512-node end-to-end simulation (engine,
//    network, ATC controllers) measuring simulator events per wall second
//    with the indexed scheduler in the loop.
//
//   sched_report                        # print the run record to stdout
//   sched_report --label x --append ../BENCH_sched.json
//   sched_report --quick               # 512-node op replay only (CI smoke)
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "report_common.h"
#include "sched/run_queue.h"
#include "sched/run_queue_ref.h"
#include "simcore/rng.h"
#include "simcore/simulation.h"
#include "virt/platform.h"
#include "virt/vcpu.h"
#include "virt/vm.h"

namespace {

using namespace atcsim;
namespace rb = atcsim::bench;
using rb::Result;
using virt::CreditPrio;
using virt::Vcpu;
using namespace sim::time_literals;

// ------------------------------------------------------- op-trace replay ---

// Node shape for the replay: the paper's evaluation platform (8 PCPUs,
// 8-VCPU parallel VMs + dom0 per node) at a consolidation ratio deep enough
// that queues carry realistic depth.
constexpr int kPcpus = 8;
constexpr int kGuestVms = 8;
constexpr int kVcpusPerVm = 8;
constexpr double kDeadBand = 30.0;

/// One node's worth of VCPUs, shared by both models (run sequentially; each
/// replay drains its structure, which resets every intrusive link).  VCPU
/// ids are dense creation-order indices, so `cls[v.id().index()]` is the
/// O(1) side array holding each VCPU's insertion class.
struct NodeFixture {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::vector<Vcpu*> vcpus;
  std::vector<CreditPrio> cls;  // insertion class, indexed by VCPU id

  NodeFixture() {
    virt::PlatformConfig pc;
    pc.nodes = 1;
    pc.pcpus_per_node = kPcpus;
    platform = std::make_unique<virt::Platform>(simulation, pc);
    for (int i = 0; i < kGuestVms; ++i) {
      platform->create_vm(virt::NodeId{0}, virt::VmType::kParallel,
                          "vm" + std::to_string(i), kVcpusPerVm);
    }
    virt::Node& node = platform->node(virt::NodeId{0});
    for (std::size_t i = 0; i < node.vms().size(); ++i) {
      for (auto& v : node.vms()[i]->vcpus()) {
        v->sched().rq.vm = static_cast<std::int32_t>(i);
        vcpus.push_back(v.get());
        cls.push_back(CreditPrio::kUnder);
      }
    }
  }
  std::size_t vm_count() const {
    return platform->node(virt::NodeId{0}).vms().size();
  }
  CreditPrio cls_of(const Vcpu& v) const { return cls[v.id().index()]; }
};

/// Uniform adapter over the two structures.  IndexedRunQueues maintains the
/// intrusive membership handle itself; for LinearRunQueues the adapter sets
/// the `rq.queue` flag (the historical scheduler knew queued-ness from its
/// own state) so the replay's wake/block logic reads membership the same
/// O(1) way for both — the comparison measures the queue operations, not
/// membership bookkeeping.
struct IndexedModel {
  sched::IndexedRunQueues q;
  void init(std::size_t queues, std::size_t vms) { q.init(queues, vms); }
  void insert(const NodeFixture&, Vcpu& v, int qi, CreditPrio cls) {
    q.insert(v, qi, cls, kDeadBand);
  }
  void erase(Vcpu& v) { q.erase(v); }
  Vcpu* front(int qi) const { return q.front(qi); }
  Vcpu* pop_front(int qi) { return q.pop_front(qi); }
  std::size_t depth(int qi) const { return q.depth(qi); }
  int queued_of_vm(int qi, int vm) const { return q.queued_of_vm(qi, vm); }
  void rebucket(const NodeFixture& fx) {
    q.rebucket([&fx](const Vcpu& w) { return fx.cls_of(w); });
  }
};

struct LinearModel {
  sched::LinearRunQueues q;
  void init(std::size_t queues, std::size_t vms) { q.init(queues, vms); }
  void insert(const NodeFixture& fx, Vcpu& v, int qi, CreditPrio cls) {
    q.insert(v, qi, cls, kDeadBand,
             [&fx](const Vcpu& w) { return fx.cls_of(w); });
    v.sched().rq.queue = qi;
  }
  void erase(Vcpu& v) {
    q.erase(v);
    v.sched().rq.queue = -1;
  }
  Vcpu* front(int qi) const { return q.front(qi); }
  Vcpu* pop_front(int qi) {
    Vcpu* v = q.pop_front(qi);
    v->sched().rq.queue = -1;
    return v;
  }
  std::size_t depth(int qi) const { return q.depth(qi); }
  int queued_of_vm(int qi, int vm) const { return q.queued_of_vm(qi, vm); }
  void rebucket(const NodeFixture& fx) {
    q.rebucket([&fx](const Vcpu& w) { return fx.cls_of(w); });
  }
};

CreditPrio random_class(sim::Rng& rng) {
  const double r = rng.next_double();
  if (r < 0.15) return CreditPrio::kBoost;
  if (r < 0.60) return CreditPrio::kUnder;
  if (r < 0.95) return CreditPrio::kOver;
  return CreditPrio::kParked;
}

/// Replays `nodes` nodes' worth of the scheduler's operation profile over
/// one model; returns (ops executed, drain fingerprint).  Per simulated
/// node: rounds of Balance placement (the O(P) vs O(P*n) sibling-count
/// key), per-queue pick/pop with work stealing (targeted erase from a
/// remote queue), wake enqueues, block-time targeted removals, and a
/// credit refill + rebucket — the same op mix CreditScheduler issues per
/// accounting period.
template <typename Model>
std::pair<std::uint64_t, std::uint64_t> replay(Model& m, NodeFixture& fx,
                                               int nodes) {
  std::uint64_t ops = 0;
  std::uint64_t fingerprint = 0;
  for (int n = 0; n < nodes; ++n) {
    sim::Rng rng(static_cast<std::uint64_t>(n) * 7919 + 17);
    m.init(kPcpus, fx.vm_count());
    for (Vcpu* v : fx.vcpus) v->sched().credits = rng.uniform(-150.0, 150.0);

    constexpr int kRounds = 8;
    for (int round = 0; round < kRounds; ++round) {
      // Wake storm: Balance-place every unqueued VCPU (fewest same-VM
      // siblings, then shallowest queue — CreditScheduler::place's
      // kBalance key).
      for (std::size_t i = 0; i < fx.vcpus.size(); ++i) {
        Vcpu& v = *fx.vcpus[i];
        if (v.sched().rq.queue >= 0) continue;
        int best = 0;
        long best_key = (1L << 40);
        for (int qi = 0; qi < kPcpus; ++qi) {
          const long key =
              (static_cast<long>(m.queued_of_vm(qi, v.sched().rq.vm))
               << 20) +
              static_cast<long>(m.depth(qi));
          if (key < best_key) {
            best_key = key;
            best = qi;
          }
        }
        fx.cls[v.id().index()] = random_class(rng);
        m.insert(fx, v, best, fx.cls[v.id().index()]);
        ++ops;
      }
      // Dispatch sweep with work stealing: each queue pops its front; an
      // empty queue steals from the deepest sibling.  Popped VCPUs take an
      // off-queue credit debit (the deschedule-time charge).
      for (int qi = 0; qi < kPcpus; ++qi) {
        Vcpu* got = m.front(qi) != nullptr ? m.pop_front(qi) : nullptr;
        if (got == nullptr) {
          int deepest = -1;
          std::size_t depth = 0;
          for (int oq = 0; oq < kPcpus; ++oq) {
            if (m.depth(oq) > depth) {
              depth = m.depth(oq);
              deepest = oq;
            }
          }
          if (deepest >= 0) got = m.pop_front(deepest);
        }
        ++ops;
        if (got != nullptr) {
          fingerprint = fingerprint * 31 +
                        static_cast<std::uint64_t>(got->id().value) + 1;
          got->sched().credits -= rng.uniform(0.0, 40.0);
        }
      }
      // Block-time targeted removals (the old erase scanned every queue).
      for (std::size_t i = 0; i < fx.vcpus.size(); i += 5) {
        Vcpu& v = *fx.vcpus[i];
        if (v.sched().rq.queue >= 0 && rng.next_double() < 0.5) {
          m.erase(v);
          ++ops;
        }
      }
      // Credit refill: every accounting period mutates all balances and
      // classes, then resorts each queue (the old resort_queues()).
      if (round % 4 == 3) {
        for (Vcpu* v : fx.vcpus) {
          v->sched().credits += rng.uniform(-50.0, 120.0);
          fx.cls[v->id().index()] = random_class(rng);
        }
        m.rebucket(fx);
        ++ops;
      }
    }
    // Drain, folding pick order into the fingerprint.
    for (int qi = 0; qi < kPcpus; ++qi) {
      while (m.front(qi) != nullptr) {
        fingerprint = fingerprint * 31 +
                      static_cast<std::uint64_t>(
                          m.pop_front(qi)->id().value) +
                      1;
        ++ops;
      }
    }
  }
  return {ops, fingerprint};
}

template <typename Model>
Result bench_replay(NodeFixture& fx, int nodes, std::uint64_t* fingerprint) {
  Model m;
  return rb::bench(3, [&]() -> std::uint64_t {
    auto result = replay(m, fx, nodes);
    *fingerprint = result.second;
    return result.first;
  });
}

// ------------------------------------------------------- full-sim macro ---

/// End-to-end 512-node type-A cluster under ATC: the cluster-scale sweep
/// cell the indexed run queues exist for, with the whole model in the loop.
/// `shards` > 1 runs the same macro through the conservative-PDES path.
Result macro_cluster512(int shards) {
  return rb::bench(2, [shards]() -> std::uint64_t {
    auto s = rb::lu_b_atc_macro(512, shards);
    s->run_for(250_ms);
    return s->events_executed();
  });
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
      quick = true;  // 512-node op replay only (CI smoke on tiny runners)
    } else if (a == "--shards" && i + 1 < argc) {
      shards = std::atoi(argv[++i]);  // macro cell PDES shard count
    } else {
      std::fprintf(stderr,
                   "usage: %s [--label str] [--append BENCH_sched.json] "
                   "[--quick] [--shards K]\n",
                   argv[0]);
      return 2;
    }
  }

  NodeFixture fx;
  std::uint64_t fp_lin = 0, fp_idx = 0;

  std::fprintf(stderr, "sched_report: rq_linear_n512...\n");
  const Result lin512 = bench_replay<LinearModel>(fx, 512, &fp_lin);
  std::fprintf(stderr, "sched_report: rq_indexed_n512...\n");
  const Result idx512 = bench_replay<IndexedModel>(fx, 512, &fp_idx);
  if (fp_lin != fp_idx) {
    std::fprintf(stderr,
                 "sched_report: FINGERPRINT MISMATCH at 512 nodes "
                 "(%llu vs %llu) — structures diverged\n",
                 static_cast<unsigned long long>(fp_lin),
                 static_cast<unsigned long long>(fp_idx));
    return 1;
  }

  Result lin1024, idx1024, macro512;
  if (!quick) {
    std::fprintf(stderr, "sched_report: rq_linear_n1024...\n");
    lin1024 = bench_replay<LinearModel>(fx, 1024, &fp_lin);
    std::fprintf(stderr, "sched_report: rq_indexed_n1024...\n");
    idx1024 = bench_replay<IndexedModel>(fx, 1024, &fp_idx);
    if (fp_lin != fp_idx) {
      std::fprintf(stderr, "sched_report: FINGERPRINT MISMATCH at 1024\n");
      return 1;
    }
    std::fprintf(stderr, "sched_report: macro_cluster512_atc...\n");
    macro512 = macro_cluster512(shards);
  }

  std::ostringstream run;
  run << "    {\n"
      << "      \"label\": \"" << label << "\",\n"
      << "      \"date\": \"" << rb::iso_now() << "\",\n"
      << "      \"build_type\": \"" << ATCSIM_BUILD_TYPE << "\",\n";
  rb::emit_result(run, "rq_linear_n512", lin512);
  rb::emit_result(run, "rq_indexed_n512", idx512);
  run << "      \"speedup_n512\": "
      << rb::json_number(idx512.per_sec / lin512.per_sec)
      << (quick ? "\n" : ",\n");
  if (!quick) {
    rb::emit_result(run, "rq_linear_n1024", lin1024);
    rb::emit_result(run, "rq_indexed_n1024", idx1024);
    run << "      \"speedup_n1024\": "
        << rb::json_number(idx1024.per_sec / lin1024.per_sec) << ",\n";
    rb::emit_result(run, "macro_cluster512_atc", macro512, true);
  }
  run << "    }";

  if (append_path.empty()) {
    std::printf("%s\n", run.str().c_str());
    return 0;
  }
  if (!rb::append_history(append_path, run.str(), "sched")) return 1;
  std::fprintf(stderr, "sched_report: wrote %s\n", append_path.c_str());
  return 0;
}
