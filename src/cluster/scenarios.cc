#include "cluster/scenarios.h"

#include <algorithm>
#include <cassert>

#include "cluster/trace.h"

namespace atcsim::cluster {

using workload::NpbClass;

void build_type_a(Scenario& s, const std::string& app, NpbClass cls) {
  s.add_identical_clusters(workload::npb_descriptor(app, cls));
}

void build_type_a(Scenario& s, const workload::Descriptor& desc) {
  s.add_identical_clusters(desc);
}

std::vector<int> place_cluster(std::vector<int>& capacity, int vms) {
  std::vector<int> placement;
  placement.reserve(static_cast<std::size_t>(vms));
  std::vector<int> used(capacity.size(), 0);
  for (int i = 0; i < vms; ++i) {
    // Prefer nodes this VC does not use yet (spread), then most remaining
    // capacity, then lowest index — all deterministic.
    int best = -1;
    for (int n = 0; n < static_cast<int>(capacity.size()); ++n) {
      if (capacity[n] <= 0) continue;
      if (best < 0) {
        best = n;
        continue;
      }
      const auto key = [&](int x) {
        return std::tuple<int, int, int>(used[x], -capacity[x], x);
      };
      if (key(n) < key(best)) best = n;
    }
    assert(best >= 0 && "placement exceeded platform capacity");
    --capacity[best];
    ++used[best];
    placement.push_back(best);
  }
  return placement;
}

namespace {

/// Creates the ten paper-configuration VCs and returns their keys.
std::vector<std::string> build_trace_vcs(Scenario& s,
                                         std::vector<int>& capacity,
                                         sim::Rng& rng) {
  const std::vector<int> sizes = paper_vc_sizes_vms();
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto& apps = workload::npb_apps();
    const std::string app =
        apps[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(apps.size()) - 1))];
    const workload::Descriptor desc =
        workload::npb_descriptor(app, NpbClass::kB);
    const std::string key =
        "VC" + std::to_string(i + 1) + ":" + desc.name;
    auto placement = place_cluster(capacity, sizes[i]);
    auto vms = s.create_cluster_vms(placement);
    s.add_bsp_app(key, desc, std::move(vms));
    keys.push_back(key);
  }
  return keys;
}

int first_node_with_capacity(const std::vector<int>& capacity) {
  for (int n = 0; n < static_cast<int>(capacity.size()); ++n) {
    if (capacity[n] > 0) return n;
  }
  return -1;
}

void add_independent_parallel(Scenario& s, std::vector<int>& capacity,
                              const std::string& app, int index,
                              std::vector<std::string>& keys) {
  const int node = first_node_with_capacity(capacity);
  assert(node >= 0);
  --capacity[node];
  const workload::Descriptor desc = workload::npb_descriptor(app, NpbClass::kB);
  const std::string key = "IVM" + std::to_string(index) + ":" + desc.name;
  auto vms = s.create_cluster_vms({node});
  s.add_bsp_app(key, desc, std::move(vms));
  keys.push_back(key);
}

}  // namespace

TypeBLayout build_type_b(Scenario& s) {
  TypeBLayout layout;
  std::vector<int> capacity(static_cast<std::size_t>(s.config().nodes),
                            s.config().vms_per_node);
  sim::Rng rng(s.config().seed ^ 0xA71A5);
  layout.vc_keys = build_trace_vcs(s, capacity, rng);
  // Independent VMs run lu.B or is.B (Sec. IV-B2).
  int index = 0;
  while (first_node_with_capacity(capacity) >= 0) {
    const std::string app = (index % 2 == 0) ? "lu" : "is";
    add_independent_parallel(s, capacity, app, index, layout.independent_keys);
    ++index;
  }
  return layout;
}

MixedLayout build_mixed(Scenario& s) {
  MixedLayout layout;
  std::vector<int> capacity(static_cast<std::size_t>(s.config().nodes),
                            s.config().vms_per_node);
  sim::Rng rng(s.config().seed ^ 0xA71A5);  // same VC draw as type B
  layout.vc_keys = build_trace_vcs(s, capacity, rng);

  // Independent VMs cycle through non-parallel apps + single-VM lu/is
  // (Sec. IV-C: Apache, bonnie++, SPEC CPU 2006, stream, and lu/is).
  const workload::Descriptor stream = workload::cpu_descriptor("stream");
  const workload::Descriptor gcc = workload::cpu_descriptor("gcc");
  const workload::Descriptor bzip2 = workload::cpu_descriptor("bzip2");
  const workload::Descriptor sphinx3 = workload::cpu_descriptor("sphinx3");
  int index = 0;
  for (;;) {
    const int node = first_node_with_capacity(capacity);
    if (node < 0) break;
    const int kind = index % 8;
    const std::string suffix = std::to_string(index);
    switch (kind) {
      case 0:
        --capacity[node];
        s.add_web_vm(node, 50.0, "web" + suffix);
        layout.web_keys.push_back("web" + suffix);
        break;
      case 1:
        --capacity[node];
        s.add_disk_vm(node, "bonnie" + suffix);
        layout.disk_keys.push_back("bonnie" + suffix);
        break;
      case 2:
        --capacity[node];
        s.add_loop_vm(node, stream, "stream" + suffix);
        layout.stream_keys.push_back("stream" + suffix);
        break;
      case 3:
        --capacity[node];
        s.add_loop_vm(node, gcc, "gcc" + suffix);
        layout.cpu_keys.push_back("gcc" + suffix);
        break;
      case 4:
        --capacity[node];
        s.add_loop_vm(node, bzip2, "bzip2" + suffix);
        layout.cpu_keys.push_back("bzip2" + suffix);
        break;
      case 5:
        --capacity[node];
        s.add_loop_vm(node, sphinx3, "sphinx3" + suffix);
        layout.cpu_keys.push_back("sphinx3" + suffix);
        break;
      case 6: {
        // ping needs a peer VM slot too; fall back to CPU when only one
        // slot remains.
        std::vector<int> copy = capacity;
        copy[static_cast<std::size_t>(node)] -= 1;
        const int peer = first_node_with_capacity(copy);
        if (peer >= 0) {
          capacity[static_cast<std::size_t>(node)] -= 1;
          capacity[static_cast<std::size_t>(peer)] -= 1;
          s.add_ping_pair(node, peer, "ping" + suffix);
          layout.ping_keys.push_back("ping" + suffix);
        } else {
          --capacity[node];
          s.add_loop_vm(node, sphinx3, "sphinx3" + suffix);
          layout.cpu_keys.push_back("sphinx3" + suffix);
        }
        break;
      }
      default:
        add_independent_parallel(s, capacity, (index % 16 < 8) ? "lu" : "is",
                                 index, layout.independent_parallel_keys);
        break;
    }
    ++index;
  }
  return layout;
}

}  // namespace atcsim::cluster
