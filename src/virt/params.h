// Calibration constants of the platform model.
//
// Values are chosen to match the paper's testbed (2x Intel Xeon E5620, Xen
// 4.2.1 credit scheduler, 1 GbE) at the granularity the experiments need.
// Every experiment takes a ModelParams so ablations can vary them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simcore/time.h"

namespace atcsim::virt {

using sim::SimTime;
using namespace sim::time_literals;

struct ModelParams {
  // --- CPU / scheduling -----------------------------------------------
  /// Direct cost of a VCPU context switch (save/restore, VMENTRY/VMEXIT).
  SimTime context_switch_cost = 2_us;

  /// LLC refill time after the cache was polluted by another VCPU; scaled by
  /// the workload's cache sensitivity.  This is the term that produces the
  /// Fig. 8 performance inflection below ~0.2-0.3 ms slices.
  SimTime cache_refill_penalty = 12_us;

  /// A VCPU can only lose what it had warmed: the refill debt charged at
  /// dispatch is min(cache_refill_penalty * sensitivity, last_stint *
  /// cache_warm_ratio).  Keeps sub-100us slices degraded but progressing.
  double cache_warm_ratio = 0.5;

  /// LLC misses charged per refill (Xenoprof substitute; ~working set lines).
  std::uint64_t llc_misses_per_refill = 8192;

  /// Xen credit default time slice ("xl sched-credit -t 30").
  SimTime default_time_slice = 30_ms;

  /// Credit accounting period; also the ATC control period ("scheduling
  /// period of VMM" in the paper).
  SimTime accounting_period = 30_ms;

  /// Credit tick (Xen: 10 ms, three ticks per slice).  At each tick a
  /// running VCPU whose priority class is now worse than its queue head's
  /// is preempted, so under-served VMs wait at most one tick, not a slice.
  SimTime tick_period = 10_ms;

  /// Minimum slice the platform supports (hypercall granularity).
  SimTime min_time_slice = 30'000;  // 30 us

  /// When true, a woken VCPU with BOOST priority preempts the running VCPU
  /// immediately (credit-1 "tickle").  Default off: in the paper's
  /// overcommitted hosts boost preemption is ineffective (Fig. 4 counts a
  /// full scheduling wait at every hop); see DESIGN.md.
  bool wake_preemption = false;

  /// Per-dispatch time-slice jitter (interrupts, accounting ticks).
  /// Breaks the artificial lock-step alignment of symmetric run queues
  /// that a deterministic simulator would otherwise exhibit.
  double slice_jitter = 0.03;

  /// Minimum runtime a VCPU is guaranteed before it can be *preempted*
  /// (Xen's sched_ratelimit_us, scaled to the sub-ms slices ATC uses).
  /// Slice expiry is unaffected.  Prevents zero-progress preemption storms
  /// under gang dispatch / wake preemption.
  SimTime preempt_min_run = 100_us;

  /// Credits granted per PCPU per accounting period (Xen uses 300/30ms).
  double credits_per_pcpu_per_period = 300.0;

  /// Credit cap (absolute value) a VCPU may accumulate, as in Xen.
  double credit_clip = 300.0;

  // --- Network (Xen split driver + 1 GbE fabric) ------------------------
  /// One-way wire propagation + switch latency between nodes.
  SimTime wire_latency = 60_us;

  /// Fabric bandwidth per NIC (bytes/second); 1 GbE = 125 MB/s.
  double nic_bandwidth_bps = 125.0e6;

  /// dom0 CPU cost to process one packet (event channel + ring + netback).
  SimTime dom0_packet_cost = 8_us;

  /// dom0 CPU cost per KiB copied through netback.
  SimTime dom0_per_kib_cost = 1_us;

  /// Guest-side cost to post or receive one packet.
  SimTime guest_packet_cost = 3_us;

  // --- Cluster control plane (contention model + live migration) --------
  /// LLC (socket) domains per host; the contention model divides a host's
  /// aggregate guest miss pressure by this (two sockets absorb twice the
  /// misses before thrashing).  Matches the paper's 2-socket testbed.
  int llc_domains_per_node = 2;

  /// Stop-and-copy floor of a live migration: even a tiny VM is paused at
  /// least this long (final dirty-round + handshake).
  SimTime migration_downtime_floor = 30_ms;

  /// Guest working-set size copied by a migration.  Small on purpose: at
  /// 1 GbE, 32 MiB keeps a move ~0.3 s so short experiment windows can
  /// afford several.
  std::int64_t migration_ws_bytes = 32ll << 20;

  // --- Disk (blkback path) ----------------------------------------------
  /// Device service latency per request once dom0 has issued it.
  SimTime disk_latency = 150_us;

  /// Disk streaming bandwidth (bytes/second).
  double disk_bandwidth_bps = 120.0e6;

  /// dom0 CPU cost per disk request.
  SimTime dom0_disk_cost = 10_us;
};

}  // namespace atcsim::virt
