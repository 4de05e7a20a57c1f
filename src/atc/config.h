// Configuration of the Adaptive Time-slice Control model (Sec. III).
#pragma once

#include "simcore/time.h"

namespace atcsim::atc {

struct AtcConfig {
  /// DEFAULT in Algorithm 1: the VMM's default slice (Xen: 30 ms).
  sim::SimTime default_slice = 30 * sim::kMillisecond;

  /// minThreshold: the uniform minimum slice found by the Euclidean-metric
  /// study of Sec. III-B (0.3 ms on the paper's testbed).
  sim::SimTime min_threshold = 300 * sim::kMicrosecond;

  /// alpha/beta: coarse and fine slice-adjustment granularities (alpha >
  /// beta per the paper; absolute values are not published — see DESIGN.md).
  sim::SimTime alpha = 1 * sim::kMillisecond;
  sim::SimTime beta = 100 * sim::kMicrosecond;

  // --- extensions (the paper's Sec. VI future work) ----------------------

  /// Non-intrusive monitoring: infer which VMs run parallel applications
  /// from VMM-visible spin behaviour instead of the administrator's
  /// declaration (VmType).  See atc::VmClassifier.
  bool auto_classify = false;

  /// Flexible non-parallel slices: give latency-sensitive non-parallel VMs
  /// (high wake-up rate, low CPU) a shorter slice instead of the default,
  /// "to better meet the demand ... for synchronization and interrupt
  /// processing" (Sec. VI).  Admin-specified slices still win.  The
  /// threshold and the slice are AtcController constants.
  bool adaptive_nonparallel = false;
};

}  // namespace atcsim::atc
