// Canned experiment layouts matching the paper's evaluation setups.
#pragma once

#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "workload/npb_profiles.h"

namespace atcsim::cluster {

/// Evaluation type A (Sec. IV-B1) and the motivation experiments: four
/// identical virtual clusters of one `app` each, one VM per node per
/// cluster.  Configure scale via Setup::nodes / vcpus_per_vm.
void build_type_a(Scenario& s, const std::string& app,
                  workload::NpbClass cls);

/// Type-A layout from a workload descriptor: parallel descriptors become
/// the identical virtual-cluster grid (the app-name overload above is this
/// with npb_descriptor(app, cls)); loop descriptors fill the same VM slots
/// with independent single-VCPU interpreters.
void build_type_a(Scenario& s, const workload::Descriptor& desc);

/// Evaluation type B (Sec. IV-B2): virtual clusters sized from the Atlas
/// trace (Table I) — 32 nodes, 128 VMs: 10 VCs over 98 VMs, the remaining
/// capacity filled with independent single-VM parallel apps (lu.B / is.B).
/// Returns the app key of each VC, largest VC first ("VC1" ... "VC10").
/// The 10 VCs cover 98 VMs and the remaining 30 slots become independent
/// VMs (the paper's "ninety" cluster VMs is a typo: its own VC list sums
/// to 98, and 98 + 30 = 128; recorded in EXPERIMENTS.md).
struct TypeBLayout {
  std::vector<std::string> vc_keys;           // parallel VC app keys
  std::vector<std::string> independent_keys;  // independent VM app keys
};
TypeBLayout build_type_b(Scenario& s);

/// Mixed scenario (Sec. IV-C): type-B virtual clusters, with the
/// independent VMs running a cycle of web server, bonnie++, stream,
/// gcc, bzip2, sphinx3, ping and single-VM lu/is.
struct MixedLayout {
  std::vector<std::string> vc_keys;
  std::vector<std::string> web_keys;
  std::vector<std::string> disk_keys;
  std::vector<std::string> stream_keys;
  std::vector<std::string> cpu_keys;   // gcc/bzip2/sphinx3
  std::vector<std::string> ping_keys;
  std::vector<std::string> independent_parallel_keys;
};
MixedLayout build_mixed(Scenario& s);

/// The placement helper used by the builders: assigns `vms` VMs of a VC to
/// distinct nodes where possible, greedily to the node with most remaining
/// guest capacity.  `capacity` is mutated.
std::vector<int> place_cluster(std::vector<int>& capacity, int vms);

}  // namespace atcsim::cluster
