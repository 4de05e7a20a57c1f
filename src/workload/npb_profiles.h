// NPB-like application profiles.
//
// The paper runs sp, bt, cg, is, mg and lu from the NAS Parallel Benchmarks
// (classes B and C).  The simulator needs each code's *coupling shape*, not
// its numerics: per-superstep compute grain, per-superstep communication
// volume, and cache footprint.  Values follow the published communication
// characterizations of NPB: lu is the most fine-grained (wavefront sweeps,
// many small messages), cg/sp/bt exchange moderate volumes at medium grain,
// mg mixes grid levels, and is is dominated by large all-to-all key
// exchanges (bandwidth-bound, coarse-grained).
#pragma once

#include <string>
#include <vector>

#include "workload/descriptor.h"

namespace atcsim::workload {

enum class NpbClass { kA, kB, kC };

/// Profile for one benchmark at one class, e.g. npb_profile("lu", kB).
/// Knows: lu, is, sp, bt, mg, cg.
BspConfig npb_profile(const std::string& app, NpbClass cls);

/// The descriptor form of npb_profile(app, cls), via Descriptor::from_bsp:
/// what the layout builders hand to BspApp.
Descriptor npb_descriptor(const std::string& app, NpbClass cls);

/// The six applications in the order the paper's figures use.
const std::vector<std::string>& npb_apps();

std::string npb_class_suffix(NpbClass cls);  // ".A" / ".B" / ".C"

}  // namespace atcsim::workload
