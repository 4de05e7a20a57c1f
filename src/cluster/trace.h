// LLNL Atlas job-trace synthesis (Table I of the paper).
//
// The paper sizes its type-B virtual clusters from the job-size distribution
// of the Atlas cluster at LLNL [16].  We provide both the distribution
// itself and the concrete 10-VC configuration the paper derives from it for
// a 128-VM platform.
#pragma once

#include <vector>

namespace atcsim::cluster {

struct TraceBucket {
  int vcpus;       ///< job size class (VCPUs); 0 = "others"
  double percent;  ///< share of jobs in the trace
};

/// Table I: S = {8,16,32,64,128,256,others}, P = {31.4,12.6,4.5,12.6,6.1,4.5,28.3}.
const std::vector<TraceBucket>& atlas_table1();

/// The paper's fixed type-B configuration for 128 8-VCPU VMs: virtual
/// cluster sizes in VMs, largest first: {32, 16, 16, 8, 8, 8, 4, 2, 2, 2}
/// (256, 128, 128, 64, 64, 64, 32, 16, 16, 16 VCPUs) = 98 VMs, plus 30
/// independent VMs = 128.  (The paper's prose says "ninety" cluster VMs,
/// which contradicts its own cluster list; 98 + 30 = 128 is consistent.)
std::vector<int> paper_vc_sizes_vms();

}  // namespace atcsim::cluster
