// Shared scaffolding for the figure benches: the scenario, type-A cell,
// parallel_for and table headers every figure uses, plus the
// scale/banner/slice helpers re-exported from the experiment library.
#pragma once

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "exp/bench_util.h"
#include "exp/type_a.h"
#include "metrics/report.h"
#include "simcore/parallel.h"

namespace atcsim::bench {

using namespace sim::time_literals;

using exp::banner;
using exp::scale_factor;
using exp::scaled;
using exp::set_global_guest_slice;

}  // namespace atcsim::bench
