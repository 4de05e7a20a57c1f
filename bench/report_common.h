// Shared scaffolding for the figure benches: the scenario, layouts, cell
// runner and table headers every figure uses, plus the scale/banner
// helpers re-exported from the experiment library.
#pragma once

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "exp/bench_util.h"
#include "exp/cell.h"
#include "metrics/report.h"

namespace atcsim::bench {

using namespace sim::time_literals;

using exp::banner;
using exp::scaled;

}  // namespace atcsim::bench
