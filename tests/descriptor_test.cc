// Workload-descriptor tests (DESIGN.md §11): parse/print round-trip
// identity (hand-written, NPB-derived, CPU-profile and fuzz-generated
// descriptors), table-driven rejection of every validation error path, the
// NPB profiles' phase structure, and the CPU profiles' pinned unit streams.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "metrics/recorders.h"
#include "net/network.h"
#include "sched/credit.h"
#include "virt/platform.h"
#include "workload/apps.h"
#include "workload/bsp_app.h"
#include "workload/descriptor.h"
#include "workload/descriptor_fuzz.h"
#include "workload/npb_profiles.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using workload::Descriptor;
using workload::DescriptorError;
using workload::Phase;
using workload::PhaseKind;

// ------------------------------------------------------------- round-trip

void expect_round_trip(const Descriptor& d, const std::string& what) {
  const std::string text = d.print();
  Descriptor back;
  ASSERT_NO_THROW(back = Descriptor::parse(text)) << what << "\n" << text;
  EXPECT_EQ(back, d) << what << ": parse(print(d)) != d\n" << text;
  // print() is a fixed point: the canonical text re-prints to itself.
  EXPECT_EQ(back.print(), text) << what;
}

TEST(DescriptorRoundTrip, HandWrittenCornerCases) {
  const char* texts[] = {
      // fractional durations, every unit, loop form with rate_units
      "workload svc\n"
      "cache_sens 0.25\n"
      "rate_units 12000\n"
      "phase compute 1.5ms jitter=0.05\n"
      "phase think 250us\n"
      "phase io 3KiB\n"
      "phase compute 999ns\n",
      // parallel form with sends, locals and an explicit barrier size
      "workload mesh-1\n"
      "phase compute 2ms jitter=0.2\n"
      "phase send 16KiB\n"
      "phase local_barrier\n"
      "phase compute 1s\n"
      "phase io 2MiB\n"
      "phase barrier 96KiB\n",
      // default barrier size, minimal parallel descriptor
      "workload a.b_c-d\nphase compute 1ns\nphase barrier\n",
  };
  for (const char* text : texts) {
    const Descriptor d = Descriptor::parse(text);
    expect_round_trip(d, text);
  }
}

TEST(DescriptorRoundTrip, InlineSemicolonsAndCommentsParse) {
  const Descriptor a = Descriptor::parse(
      "workload svc; phase compute 1ms jitter=0.1; phase think 2ms");
  const Descriptor b = Descriptor::parse(
      "# a comment line\n"
      "workload svc  # trailing comment\n"
      "phase compute 1ms jitter=0.1\n"
      "\n"
      "phase think 2ms\n");
  EXPECT_EQ(a, b);
  expect_round_trip(a, "inline form");
}

TEST(DescriptorRoundTrip, NpbAndCpuProfilesRoundTrip) {
  for (const std::string& app : workload::npb_apps()) {
    for (auto cls : {workload::NpbClass::kA, workload::NpbClass::kB,
                     workload::NpbClass::kC}) {
      expect_round_trip(workload::npb_descriptor(app, cls),
                        app + workload::npb_class_suffix(cls));
    }
  }
  for (const char* name : {"sphinx3", "gcc", "bzip2", "stream"}) {
    expect_round_trip(workload::cpu_descriptor(name), name);
  }
}

TEST(DescriptorRoundTrip, FuzzGeneratedDescriptorsRoundTrip) {
  sim::Rng rng(0xD35C);
  for (int i = 0; i < 300; ++i) {
    const Descriptor d = workload::fuzz_descriptor(rng);
    ASSERT_EQ(d.validate(), "") << "fuzzer emitted an invalid descriptor";
    expect_round_trip(d, "fuzz case " + std::to_string(i));
  }
}

// -------------------------------------------------------------- rejection

std::string parse_error(const std::string& text) {
  try {
    (void)Descriptor::parse(text);
  } catch (const DescriptorError& e) {
    return e.what();
  }
  return "";
}

TEST(DescriptorRejection, EveryParseAndValidateErrorPath) {
  struct Case {
    const char* text;
    const char* want;  // substring of the error message
  };
  std::string many_phases = "workload x\n";
  for (int i = 0; i < 65; ++i) many_phases += "phase compute 1ms\n";
  std::string many_locals = "workload x\nphase compute 1ms\n";
  for (int i = 0; i < 32; ++i) many_locals += "phase local_barrier\n";
  many_locals += "phase barrier\n";

  const Case cases[] = {
      // parse-level errors
      {"phase compute 1ms", "no 'workload <name>' directive"},
      {"workload x\nworkload y\nphase compute 1ms",
       "duplicate 'workload' directive"},
      {"workload x y\nphase compute 1ms", "takes exactly one value"},
      {"workload x\ncache_sens nope\nphase compute 1ms",
       "malformed cache_sens"},
      {"workload x\nfrobnicate 3\nphase compute 1ms",
       "unknown directive 'frobnicate'"},
      {"workload x\nphase\nphase compute 1ms", "phase needs a kind"},
      {"workload x\nphase warble 1ms", "unknown phase kind 'warble'"},
      {"workload x\nphase compute", "needs a duration"},
      {"workload x\nphase compute 1parsec", "unknown duration unit"},
      {"workload x\nphase compute 1e6s", "out of range"},
      {"workload x\nphase compute -1ms", "out of range"},
      {"workload x\nphase compute 1ms jitter=0.1 jitter=0.2",
       "duplicate jitter argument"},
      {"workload x\nphase compute 1ms jitter=nope", "malformed jitter"},
      {"workload x\nphase compute 1ms spin=3", "unknown phase argument"},
      {"workload x\nphase io", "takes a size"},
      {"workload x\nphase io 1KB", "unknown size unit 'KB'"},
      {"workload x\nphase io 1e6MiB", "out of range"},
      {"workload x\nphase compute 1ms\nphase local_barrier now\n"
       "phase barrier",
       "takes no arguments"},
      {"workload x\nphase compute 1ms\nphase barrier 1KiB 2KiB",
       "takes at most a size"},
      // validate-level errors
      {"workload bad!name\nphase compute 1ms",
       "must be 1-64 characters"},
      {"workload x\ncache_sens 0\nphase compute 1ms", "outside (0, 64]"},
      {"workload x\ncache_sens 65\nphase compute 1ms", "outside (0, 64]"},
      {"workload x\nrate_units -1\nphase compute 1ms", "outside [0, 1e9]"},
      {"workload x", "descriptor has no phases"},
      {"workload x\nphase compute 0ns", "outside [1ns, 60s]"},
      {"workload x\nphase think 61s", "outside [1ns, 60s]"},
      {"workload x\nphase compute 1ms jitter=0.95", "outside [0, 0.9]"},
      {"workload x\nphase io 0B", "outside [1B, 256MiB]"},
      {"workload x\nphase compute 1ms\nphase send 257MiB\nphase barrier",
       "outside [1B, 256MiB]"},
      {"workload x\nphase barrier\nphase compute 1ms",
       "barrier must be the last phase"},
      {"workload x\nphase barrier",
       "at least one phase besides the barrier"},
      {"workload x\nphase compute 1ms\nphase local_barrier",
       "local_barrier requires a trailing barrier"},
      {"workload x\nphase compute 1ms\nphase send 1KiB",
       "send requires a trailing barrier"},
      {"workload x\nrate_units 5\nphase compute 1ms\nphase barrier",
       "applies only to loop"},
  };
  for (const Case& c : cases) {
    const std::string err = parse_error(c.text);
    EXPECT_FALSE(err.empty()) << "accepted: " << c.text;
    EXPECT_NE(err.find(c.want), std::string::npos)
        << "for: " << c.text << "\n  got:  " << err << "\n  want: " << c.want;
  }
  {
    const std::string err = parse_error(many_phases);
    EXPECT_NE(err.find("at most 64 allowed"), std::string::npos) << err;
  }
  {
    const std::string err = parse_error(many_locals);
    EXPECT_NE(err.find("exceed the 31 maximum"), std::string::npos) << err;
  }
  // A 65-character name fails, a 64-character one passes.
  const std::string long_name(65, 'a');
  EXPECT_NE(parse_error("workload " + long_name + "\nphase compute 1ms")
                .find("must be 1-64 characters"),
            std::string::npos);
  EXPECT_EQ(parse_error("workload " + std::string(64, 'a') +
                        "\nphase compute 1ms"),
            "");
}

TEST(DescriptorRejection, ValidateCatchesFieldsUnreachableFromText) {
  // The grammar cannot express these shapes, but the struct can; validate()
  // still rejects them so programmatic construction is equally safe.
  Descriptor d;
  d.name = "x";
  Phase compute;
  compute.kind = PhaseKind::kCompute;
  compute.duration = sim::kMillisecond;
  compute.bytes = 64;  // compute with a byte volume
  d.phases = {compute};
  EXPECT_NE(d.validate().find("unexpected byte volume"), std::string::npos);

  Phase io;
  io.kind = PhaseKind::kIo;
  io.bytes = 1024;
  io.jitter = 0.1;  // io with jitter
  d.phases = {io};
  EXPECT_NE(d.validate().find("unexpected duration/jitter"),
            std::string::npos);

  Phase local;
  local.kind = PhaseKind::kLocalBarrier;
  local.bytes = 7;  // local barrier with arguments
  Phase barrier;
  barrier.kind = PhaseKind::kBarrier;
  barrier.bytes = 1024;
  compute.bytes = 0;
  d.phases = {compute, local, barrier};
  EXPECT_NE(d.validate().find("unexpected arguments"), std::string::npos);
  // The whole message: phase kind, 1-based position, reason.
  EXPECT_EQ(d.validate(), "phase local_barrier #2: unexpected arguments");
}

// --------------------------------------------------------- NPB descriptors

TEST(NpbDescriptorTest, PhaseStructureMirrorsTheProfile) {
  for (const std::string& app : workload::npb_apps()) {
    for (auto cls : {workload::NpbClass::kA, workload::NpbClass::kB,
                     workload::NpbClass::kC}) {
      const workload::BspConfig cfg = workload::npb_profile(app, cls);
      const Descriptor d = workload::npb_descriptor(app, cls);
      SCOPED_TRACE(cfg.name);
      EXPECT_EQ(d.name, cfg.name);
      EXPECT_EQ(d.cache_sensitivity, cfg.cache_sensitivity);
      EXPECT_TRUE(d.parallel());
      EXPECT_EQ(d.local_barriers(), cfg.sync_rounds - 1);
      EXPECT_EQ(d.barrier_bytes(), cfg.bytes_per_msg);
      // [compute, local_barrier] x (R-1), compute, barrier.
      ASSERT_EQ(d.phases.size(),
                static_cast<std::size_t>(2 * cfg.sync_rounds));
      const sim::SimTime segment =
          cfg.compute_per_superstep / cfg.sync_rounds;
      for (int r = 0; r < cfg.sync_rounds; ++r) {
        const Phase& c = d.phases[static_cast<std::size_t>(2 * r)];
        EXPECT_EQ(c.kind, PhaseKind::kCompute);
        EXPECT_EQ(c.duration, segment);
        EXPECT_EQ(c.jitter, cfg.compute_jitter);
        if (r < cfg.sync_rounds - 1) {
          EXPECT_EQ(d.phases[static_cast<std::size_t>(2 * r + 1)].kind,
                    PhaseKind::kLocalBarrier);
        }
      }
      EXPECT_EQ(d.phases.back().kind, PhaseKind::kBarrier);
    }
  }
}

// Minimal single-node rig for compiling BspApp programs (same shape as the
// workload_test.cc rig).
struct ProgRig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::unique_ptr<net::VirtualNetwork> network;

  ProgRig() {
    virt::PlatformConfig pc;
    pc.nodes = 1;
    pc.pcpus_per_node = 4;
    pc.seed = 23;
    platform = std::make_unique<virt::Platform>(simulation, pc);
    network = std::make_unique<net::VirtualNetwork>(*platform);
    network->attach();
  }

  virt::Vm& vm() {
    return platform->create_vm(virt::NodeId{0}, virt::VmType::kParallel,
                               "w" + std::to_string(platform->vm_count()), 4);
  }
};

// ------------------------------------------------------- CPU loop guests

TEST(CpuDescriptorTest, CreditsTheRecordedUnitStream) {
  // Each profile alone on node 0 of a 2-node cell (seed 97, 200 ms warmup,
  // 600 ms measured).  The units and event counts are the ones the
  // pre-descriptor CPU loop produced, pinned exactly.
  struct Pin {
    const char* name;
    double units;
    std::uint64_t events;
  };
  const Pin pins[] = {
      {"stream", 7200.6716759999972, 2297},
      {"gcc", 0.59951866400000009, 1097},
      {"sphinx3", 0.59952277400000031, 1230},
      {"bzip2", 0.60090034499999989, 964},
  };
  for (const Pin& pin : pins) {
    auto sp =
        cluster::ScenarioBuilder{}.nodes(2).vcpus_per_vm(4).seed(97).build();
    sp->add_loop_vm(0, workload::cpu_descriptor(pin.name), "cpu0");
    sp->warmup_and_measure(200_ms, 600_ms);
    double units = 0.0;
    for (const auto& [key, rate] : sp->metrics().all_rates()) {
      units += rate.units();
    }
    EXPECT_EQ(units, pin.units) << pin.name;
    EXPECT_EQ(sp->events_executed(), pin.events) << pin.name;
  }
}

// --------------------------------------------------------- misc semantics

TEST(DescriptorTest, LoopDescriptorsRejectBspAppAndViceVersa) {
  const Descriptor loop =
      Descriptor::parse("workload l\nphase compute 1ms\n");
  const Descriptor par =
      Descriptor::parse("workload p\nphase compute 1ms\nphase barrier\n");
  ProgRig rig;
  EXPECT_THROW(
      workload::BspApp({&rig.vm()}, loop, sim::Rng(1), nullptr),
      DescriptorError);
  metrics::MetricsRegistry reg(rig.simulation);
  EXPECT_THROW(
      workload::LoopWorkload(rig.vm(), par, sim::Rng(1), &reg.rate("r")),
      DescriptorError);
}

TEST(DescriptorTest, MinimizerPreservesTheFailurePredicate) {
  // Pretend any descriptor that is still parallel "fails": the minimizer
  // must return a valid descriptor that still satisfies the predicate.
  const auto still_fails = [](const Descriptor& c) { return c.parallel(); };
  sim::Rng rng(77);
  Descriptor d = workload::fuzz_descriptor(rng);
  for (int draw = 0; draw < 100 && !still_fails(d); ++draw) {
    d = workload::fuzz_descriptor(rng);
  }
  ASSERT_TRUE(still_fails(d)) << "no parallel descriptor in 100 draws";
  const Descriptor min = workload::minimize_descriptor(d, still_fails);
  EXPECT_EQ(min.validate(), "");
  EXPECT_TRUE(still_fails(min));
  // Greedy drops end at the smallest parallel form: one phase and the
  // barrier, with every jitter zeroed.
  EXPECT_EQ(min.phases.size(), 2u) << min.print();
  for (const Phase& p : min.phases) EXPECT_EQ(p.jitter, 0.0);
}

// The committed example descriptors parse, and lu_b.wl is the descriptor
// twin of the lu.B profile.
TEST(DescriptorTest, ExampleWorkloadsParse) {
  const auto parse_file = [](const std::string& file) {
    std::ifstream in(std::string(ATCSIM_EXAMPLE_WORKLOADS_DIR) + "/" + file);
    EXPECT_TRUE(in.is_open()) << file;
    std::ostringstream text;
    text << in.rdbuf();
    return Descriptor::parse(text.str());
  };
  EXPECT_EQ(parse_file("lu_b.wl"),
            workload::npb_descriptor("lu", workload::NpbClass::kB));
  const Descriptor chatty = parse_file("chatty_service.wl");
  EXPECT_EQ(chatty.name, "chatty-svc");
  EXPECT_FALSE(chatty.parallel());
}

}  // namespace
}  // namespace atcsim
