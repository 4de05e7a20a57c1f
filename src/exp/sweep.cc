#include "exp/sweep.h"

namespace atcsim::exp {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t SweepSpec::grid_size() const {
  // A workload descriptor replaces the apps x classes axes.
  const std::size_t app_cells =
      workload.empty() ? apps.size() * classes.size() : 1;
  return app_cells * approaches.size() * nodes.size() *
         vcpus_per_vm.size() * slices.size() * seeds.size() *
         static_cast<std::size_t>(repetitions > 0 ? repetitions : 0);
}

std::uint64_t Trial::seed() const {
  // Repetition 0 uses the base seed verbatim so single-repetition sweeps
  // reproduce the numbers of the pre-runner harnesses; further repetitions
  // get independent derived streams.
  if (rep == 0) return base_seed;
  return splitmix64(base_seed ^ splitmix64(static_cast<std::uint64_t>(rep)));
}

std::string Trial::label() const {
  // Descriptor trials carry the descriptor's own name; NPB trials keep the
  // app + class form.
  std::string s = app +
                  (descriptor.empty() ? workload::npb_class_suffix(cls)
                                      : std::string()) +
                  "/" + cluster::approach_name(approach) + "/n" +
                  std::to_string(nodes) + "/v" + std::to_string(vcpus) + "/";
  s += slice == kAdaptiveSlice ? "adaptive" : sim::format_time(slice);
  s += "/s" + std::to_string(base_seed) + "/r" + std::to_string(rep);
  return s;
}

std::vector<Trial> expand(const SweepSpec& spec) {
  // Descriptor sweeps parse the text once, so an invalid descriptor fails
  // here — before any trial runs.
  std::vector<std::string> apps = spec.apps;
  std::vector<workload::NpbClass> classes = spec.classes;
  if (!spec.workload.empty()) {
    apps = {workload::Descriptor::parse(spec.workload).name};
    classes = {workload::NpbClass::kB};
  }
  std::vector<Trial> trials;
  trials.reserve(spec.grid_size());
  int id = 0;
  for (const auto& app : apps)
    for (auto cls : classes)
      for (auto approach : spec.approaches)
        for (int n : spec.nodes)
          for (int v : spec.vcpus_per_vm)
            for (sim::SimTime slice : spec.slices)
              for (std::uint64_t seed : spec.seeds)
                for (int rep = 0; rep < spec.repetitions; ++rep) {
                  Trial t;
                  t.id = id++;
                  t.app = app;
                  t.descriptor = spec.workload;
                  t.cls = cls;
                  t.approach = approach;
                  t.nodes = n;
                  t.vcpus = v;
                  t.vms_per_node = spec.vms_per_node;
                  t.pcpus_per_node = spec.pcpus_per_node;
                  t.slice = slice;
                  t.base_seed = seed;
                  t.rep = rep;
                  t.shards = spec.shards;
                  t.warmup = spec.warmup;
                  t.measure = spec.measure;
                  t.trace = spec.trace;
                  trials.push_back(std::move(t));
                }
  return trials;
}

}  // namespace atcsim::exp
