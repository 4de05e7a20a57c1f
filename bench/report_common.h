// Shared scaffolding for the figure benches: the scenario, experiment-runner
// and table headers every figure uses, plus the scale/banner/slice helpers
// re-exported from the experiment-runner library.
#pragma once

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "exp/bench_util.h"
#include "exp/emit.h"
#include "exp/runner.h"
#include "metrics/report.h"

namespace atcsim::bench {

using namespace sim::time_literals;

using exp::banner;
using exp::scale_factor;
using exp::scaled;
using exp::set_global_guest_slice;

}  // namespace atcsim::bench
