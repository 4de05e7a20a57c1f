#include "workload/descriptor_fuzz.h"

#include <stdexcept>
#include <string>

namespace atcsim::workload {

namespace {

using sim::SimTime;
using namespace sim::time_literals;

Phase compute_phase(sim::Rng& rng) {
  Phase p;
  p.kind = PhaseKind::kCompute;
  p.duration = rng.uniform_int(200'000, 5'000'000);  // 200us .. 5ms
  const double jitters[] = {0.0, 0.05, 0.1, 0.2};
  p.jitter = jitters[rng.uniform_int(0, 3)];
  return p;
}

Phase think_phase(sim::Rng& rng) {
  Phase p;
  p.kind = PhaseKind::kThink;
  p.duration = rng.uniform_int(100'000, 2'000'000);  // 100us .. 2ms
  const double jitters[] = {0.0, 0.05, 0.1};
  p.jitter = jitters[rng.uniform_int(0, 2)];
  return p;
}

Phase io_phase(sim::Rng& rng) {
  Phase p;
  p.kind = PhaseKind::kIo;
  p.bytes = static_cast<std::uint64_t>(
      rng.uniform_int(4 * 1024, 512 * 1024));
  return p;
}

Phase send_phase(sim::Rng& rng) {
  Phase p;
  p.kind = PhaseKind::kSend;
  p.bytes = static_cast<std::uint64_t>(rng.uniform_int(1024, 64 * 1024));
  return p;
}

/// One work phase weighted towards compute (the dominant BSP ingredient).
Phase work_phase(sim::Rng& rng) {
  const std::int64_t roll = rng.uniform_int(0, 9);
  if (roll < 6) return compute_phase(rng);
  if (roll < 8) return think_phase(rng);
  return io_phase(rng);
}

}  // namespace

Descriptor fuzz_descriptor(sim::Rng& rng) {
  Descriptor d;
  d.name = "fz" + std::to_string(rng.uniform_int(0, 999'999));
  const double sens[] = {0.5, 1.0, 1.5, 2.0};
  d.cache_sensitivity = sens[rng.uniform_int(0, 3)];

  const bool parallel = rng.next_double() < 0.8;
  if (parallel) {
    // 1..4 segments separated by intra-VM local barriers, each segment
    // carrying 1..2 work phases; optional fire-and-forget sends; then the
    // global barrier.
    const int segments = static_cast<int>(rng.uniform_int(1, 4));
    for (int s = 0; s < segments; ++s) {
      const int work = static_cast<int>(rng.uniform_int(1, 2));
      for (int w = 0; w < work; ++w) d.phases.push_back(work_phase(rng));
      if (rng.next_double() < 0.3) d.phases.push_back(send_phase(rng));
      if (s < segments - 1) {
        Phase lb;
        lb.kind = PhaseKind::kLocalBarrier;
        d.phases.push_back(lb);
      }
    }
    Phase b;
    b.kind = PhaseKind::kBarrier;
    b.bytes = static_cast<std::uint64_t>(
        rng.uniform_int(1024, 256 * 1024));
    d.phases.push_back(b);
  } else {
    const int phases = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < phases; ++i) d.phases.push_back(work_phase(rng));
    const double rates[] = {0.0, 1.0, 8.0, 12'000.0};
    d.rate_units = rates[rng.uniform_int(0, 3)];
  }

  if (const std::string err = d.validate(); !err.empty()) {
    throw std::logic_error("fuzz_descriptor produced an invalid descriptor: " +
                           err + "\n" + d.print());
  }
  return d;
}

Descriptor minimize_descriptor(
    Descriptor d, const std::function<bool(const Descriptor&)>& still_fails,
    int budget) {
  bool changed = true;
  while (changed && budget > 0) {
    changed = false;
    // Drop one phase at a time; restart the scan after every success so
    // indices stay valid and earlier drops get retried on the smaller form.
    for (std::size_t i = 0; i < d.phases.size() && budget > 0; ++i) {
      Descriptor cand = d;
      cand.phases.erase(cand.phases.begin() +
                        static_cast<std::ptrdiff_t>(i));
      if (!cand.validate().empty()) continue;
      --budget;
      if (still_fails(cand)) {
        d = std::move(cand);
        changed = true;
        break;
      }
    }
    if (budget <= 0) break;
    // Deterministic parameter simplifications, cheapest reproduction first.
    Descriptor cand = d;
    bool any = false;
    for (Phase& p : cand.phases) {
      if (p.jitter != 0.0) {
        p.jitter = 0.0;
        any = true;
      }
    }
    if (any) {
      --budget;
      if (still_fails(cand)) {
        d = cand;
        changed = true;
      }
    }
    if (d.rate_units != 0.0 && budget > 0) {
      cand = d;
      cand.rate_units = 0.0;
      if (cand.validate().empty()) {
        --budget;
        if (still_fails(cand)) {
          d = cand;
          changed = true;
        }
      }
    }
  }
  return d;
}

}  // namespace atcsim::workload
