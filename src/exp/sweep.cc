#include "exp/sweep.h"

#include <cstdio>

namespace atcsim::exp {

namespace {

// Bump when the simulation model changes in a way that invalidates cached
// trial results (platform physics, workload profiles, metric definitions,
// RNG stream layout).
constexpr std::uint64_t kModelSchemaVersion = 2;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// FNV-1a, folded through splitmix for better diffusion of small ints.
class Hasher {
 public:
  void mix(std::uint64_t v) {
    h_ ^= splitmix64(v);
    h_ *= 0x100000001B3ULL;
  }
  void mix(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001B3ULL;
    }
    mix(s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

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
  // Descriptor sweeps canonicalize the text once (parse + print), so every
  // textual spelling of the same workload shares trial hashes, and an
  // invalid descriptor fails here — before any trial runs.
  std::string desc_text;
  std::vector<std::string> apps = spec.apps;
  std::vector<workload::NpbClass> classes = spec.classes;
  if (!spec.workload.empty()) {
    const workload::Descriptor d = workload::Descriptor::parse(spec.workload);
    desc_text = d.print();
    apps = {d.name};
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
                  t.descriptor = desc_text;
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

std::uint64_t spec_hash(const SweepSpec& spec) {
  Hasher h;
  h.mix(kModelSchemaVersion);
  h.mix(spec.name);
  h.mix(spec.tag);
  h.mix(static_cast<std::uint64_t>(spec.warmup));
  h.mix(static_cast<std::uint64_t>(spec.measure));
  h.mix(static_cast<std::uint64_t>(spec.vms_per_node));
  h.mix(static_cast<std::uint64_t>(spec.pcpus_per_node));
  // Metrics are shard-count invariant, but the events count is not.
  h.mix(static_cast<std::uint64_t>(spec.shards));
  h.mix(spec.workload);
  return h.value();
}

std::uint64_t trial_hash(const Trial& t) {
  Hasher h;
  h.mix(t.app);
  h.mix(static_cast<std::uint64_t>(t.cls));
  h.mix(static_cast<std::uint64_t>(t.approach));
  h.mix(static_cast<std::uint64_t>(t.nodes));
  h.mix(static_cast<std::uint64_t>(t.vcpus));
  h.mix(static_cast<std::uint64_t>(t.vms_per_node));
  h.mix(static_cast<std::uint64_t>(t.pcpus_per_node));
  h.mix(static_cast<std::uint64_t>(t.slice));
  h.mix(t.base_seed);
  h.mix(static_cast<std::uint64_t>(t.rep));
  h.mix(static_cast<std::uint64_t>(t.warmup));
  h.mix(static_cast<std::uint64_t>(t.measure));
  h.mix(static_cast<std::uint64_t>(t.shards));
  // Canonical descriptor text is the workload's content hash key.
  h.mix(t.descriptor);
  return h.value();
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace atcsim::exp
