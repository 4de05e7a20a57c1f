#include "cluster/trace.h"

namespace atcsim::cluster {

const std::vector<TraceBucket>& atlas_table1() {
  static const std::vector<TraceBucket> table = {
      {8, 31.4}, {16, 12.6}, {32, 4.5},  {64, 12.6},
      {128, 6.1}, {256, 4.5}, {0, 28.3},  // "others"
  };
  return table;
}

std::vector<int> paper_vc_sizes_vms() {
  return {32, 16, 16, 8, 8, 8, 4, 2, 2, 2};
}

}  // namespace atcsim::cluster
