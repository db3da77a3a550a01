// config/serde: bidirectional JSON serde for every config struct.
// Pins: exact-value round trips (fixed and randomized), unknown-key /
// wrong-type / out-of-range errors carrying the exact JSON path, the
// compile-time field counts behind the orphan-knob guard, and — the core
// contract of the declarative layer — run_experiment(parse(serialize(cfg)))
// bit-identical to run_experiment(cfg) on all four fabrics.
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "config/presets.h"
#include "config/serde.h"
#include "core/experiment.h"

namespace {

using namespace opus;
using config::field_count;
using config::SerdeError;
using json::Value;

// ---- field-count pins (the compile-time orphan-knob audit) -----------------
// These mirror serde.cpp's static_asserts; a failure here means a struct
// gained/lost a field and BOTH the serializer and these pins must move.
static_assert(field_count<workload::ModelConfig> == 13);
static_assert(field_count<workload::ParallelismConfig> == 8);
static_assert(field_count<workload::GpuSpec> == 3);
static_assert(field_count<workload::IterationOptions> == 5);
static_assert(field_count<workload::IterationEngine::Options> == 3);
static_assert(field_count<core::FaultConfig> == 6);
static_assert(field_count<obs::TelemetryConfig> == 5);
static_assert(field_count<core::SweepOptions> == 2);
static_assert(field_count<core::ExperimentConfig> == 22);
static_assert(field_count<fleet::JobShape> == 4);
static_assert(field_count<fleet::ArrivalConfig> == 5);
static_assert(field_count<fleet::FleetConfig> == 7);
static_assert(field_count<core::ExperimentResult> == 18);
static_assert(field_count<fleet::FleetJobResult> == 22);
static_assert(field_count<fleet::FleetResult> == 9);

template <class T>
T round_trip(const T& v) {
  T out;
  config::from_json(json::parse(json::dump(config::to_json(v))), out);
  return out;
}

// ---- round trips -----------------------------------------------------------

TEST(Serde, DefaultConfigsSerializeEmptyAndRoundTrip) {
  EXPECT_EQ(json::dump(config::to_json(core::ExperimentConfig{}), 0), "{}");
  EXPECT_EQ(json::dump(config::to_json(fleet::FleetConfig{}), 0), "{}");
  EXPECT_EQ(round_trip(core::ExperimentConfig{}), core::ExperimentConfig{});
  EXPECT_EQ(round_trip(fleet::FleetConfig{}), fleet::FleetConfig{});
}

TEST(Serde, PresetConfigsRoundTripExactly) {
  for (const config::ExperimentPreset& p : config::experiment_presets()) {
    EXPECT_EQ(round_trip(p.config), p.config) << p.name;
  }
  for (const config::FleetPreset& p : config::fleet_presets()) {
    EXPECT_EQ(round_trip(p.config), p.config) << p.name;
  }
}

TEST(Serde, ModelPresetStringsResolve) {
  workload::ModelConfig m;
  config::from_json(json::parse("\"llama3_8b\""), m);
  EXPECT_EQ(m, workload::ModelConfig::llama3_8b());
  // An exact preset match serializes back to the bare name.
  EXPECT_EQ(json::dump(config::to_json(m), 0), "\"llama3_8b\"");
}

TEST(Serde, ModelPresetKeyAppliesFirstRegardlessOfPosition) {
  // "preset" listed AFTER the override still applies first.
  workload::ModelConfig m;
  config::from_json(json::parse(R"({"n_layers": 99, "preset": "test_tiny"})"),
                    m);
  workload::ModelConfig expect = workload::ModelConfig::test_tiny();
  expect.n_layers = 99;
  EXPECT_EQ(m, expect);
}

TEST(Serde, GpuPresetStringsResolve) {
  workload::GpuSpec g;
  config::from_json(json::parse("\"h100\""), g);
  EXPECT_EQ(g, workload::GpuSpec::h100());
  EXPECT_EQ(json::dump(config::to_json(g), 0), "\"h100\"");
}

TEST(Serde, OverrideSemanticsKeepUnmentionedFields) {
  core::ExperimentConfig cfg = config::table3_cell(64);
  const core::ExperimentConfig before = cfg;
  config::from_json(json::parse(R"({"iterations": 9})"), cfg);
  EXPECT_EQ(cfg.iterations, 9);
  cfg.iterations = before.iterations;
  EXPECT_EQ(cfg, before);  // nothing else moved
}

TEST(Serde, EnumTokensCoverAllFabrics) {
  for (net::FabricKind f :
       {net::FabricKind::kElectrical, net::FabricKind::kOpusPhotonic,
        net::FabricKind::kStaticRing, net::FabricKind::kRotor}) {
    EXPECT_EQ(config::fabric_kind_from_token(config::to_token(f), "$"), f);
  }
}

// Randomized property test: draw configs from serde-exact value pools and
// require parse(serialize(cfg)) == cfg for every one of them.
TEST(Serde, RandomizedExperimentConfigsRoundTrip) {
  Xoshiro256 rng(424242);
  const auto pick_int = [&](int lo, int hi) {
    return lo + static_cast<int>(rng.next() % (hi - lo + 1));
  };
  for (int i = 0; i < 200; ++i) {
    core::ExperimentConfig cfg;
    cfg.model = workload::ModelConfig::test_tiny();
    cfg.model.n_layers = pick_int(1, 12);
    cfg.model.hidden = 64 * pick_int(1, 8);
    cfg.parallelism.tp = 1 << (rng.next() % 3);
    cfg.parallelism.dp = pick_int(1, 16);
    cfg.parallelism.pp = pick_int(1, 4);
    cfg.parallelism.n_microbatches = pick_int(1, 8);
    cfg.gpus_per_node = pick_int(1, 8);
    cfg.fabric = static_cast<net::FabricKind>(rng.next() % 4);
    cfg.rotor_slot_time = msecs(pick_int(1, 20));
    cfg.rotor_port_spread = pick_int(1, 4);
    cfg.nic_ports = pick_int(1, 4);
    // Quarter-gbps grid: exact through the gbps <-> bits/s double round
    // trip (the serde key is *_gbps).
    cfg.nic_total_bw = Bandwidth::gbps(pick_int(1, 3200) * 0.25);
    cfg.nvlink_bw = Bandwidth::gbps(pick_int(1, 9600) * 0.25);
    cfg.mgmt_bw = Bandwidth::gbps(pick_int(0, 400) * 0.25);
    cfg.ocs_reconfig_delay = usecs(pick_int(0, 50000));
    cfg.gpu = (rng.next() & 1) ? workload::GpuSpec::h100()
                               : workload::GpuSpec::a100();
    cfg.mfu = pick_int(1, 64) / 64.0;
    cfg.activation_recompute = (rng.next() & 1) != 0;
    cfg.iteration.pipeline_schedule = (rng.next() & 1)
                                          ? workload::PipelineSchedule::k1F1B
                                          : workload::PipelineSchedule::kGpipe;
    cfg.engine.seed = rng.next() >> 1;  // keep within the JSON int range
    cfg.provisioning = (rng.next() & 1) != 0;
    cfg.mgmt_offload_threshold = static_cast<Bytes>(rng.next() % (1 << 20));
    cfg.iterations = pick_int(1, 5);
    cfg.record_compute_trace = (rng.next() & 1) != 0;
    cfg.faults.enabled = (rng.next() & 1) != 0;
    cfg.faults.mtbf_per_port = msecs(pick_int(1, 100));
    cfg.faults.seed = rng.next() >> 1;
    cfg.faults.max_failures = pick_int(0, 128);
    EXPECT_EQ(round_trip(cfg), cfg) << "draw " << i;
  }
}

TEST(Serde, RandomizedFleetConfigsRoundTrip) {
  Xoshiro256 rng(777);
  for (int i = 0; i < 100; ++i) {
    fleet::FleetConfig cfg;
    cfg.n_nodes = 1 + static_cast<int>(rng.next() % 512);
    cfg.base.fabric = static_cast<net::FabricKind>(rng.next() % 4);
    cfg.policy = (rng.next() & 1) ? fleet::PlacementPolicy::kRailAware
                                  : fleet::PlacementPolicy::kFirstFit;
    cfg.isolated_baselines = (rng.next() & 1) != 0;
    cfg.arrivals.seed = rng.next() >> 1;
    cfg.arrivals.n_jobs = static_cast<int>(rng.next() % 64);
    cfg.arrivals.mean_interarrival = msecs(1 + rng.next() % 50);
    if (rng.next() & 1) {
      fleet::JobShape shape;
      shape.name = "shape_" + std::to_string(i);
      shape.model = workload::ModelConfig::test_tiny();
      shape.parallelism.dp = 2;
      shape.weight = (1 + static_cast<int>(rng.next() % 8)) * 0.5;
      cfg.arrivals.shapes.push_back(shape);
    }
    cfg.baseline_sweep.threads = static_cast<int>(rng.next() % 8);
    EXPECT_EQ(round_trip(cfg), cfg) << "draw " << i;
  }
}

// ---- error paths -----------------------------------------------------------

template <class Fn>
std::string serde_error_path(Fn&& fn) {
  try {
    fn();
  } catch (const SerdeError& e) {
    return e.path();
  }
  return "<no error>";
}

TEST(SerdeErrors, UnknownKeyReportsExactPath) {
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"model": {"n_layrs": 4}})"));
            }),
            "$.model.n_layrs");
  EXPECT_EQ(serde_error_path([] {
              config::fleet_from_json(json::parse(
                  R"({"arrivals": {"shapes": [{"wieght": 2}]}})"));
            }),
            "$.arrivals.shapes[0].wieght");
  // The retired eager-wiring compat knob is rejected like any unknown key.
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"eager_fabric_wiring": true})"));
            }),
            "$.eager_fabric_wiring");
}

TEST(SerdeErrors, WrongTypeReportsExactPath) {
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"parallelism": {"dp": "four"}})"));
            }),
            "$.parallelism.dp");
  // A double literal is not an integer field value.
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"iterations": 2.0})"));
            }),
            "$.iterations");
  // But an integer literal IS a valid double field value.
  core::ExperimentConfig cfg =
      config::experiment_from_json(json::parse(R"({"mfu": 1})"));
  EXPECT_DOUBLE_EQ(cfg.mfu, 1.0);
}

TEST(SerdeErrors, OutOfRangeReportsExactPath) {
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(json::parse(R"({"mfu": 1.5})"));
            }),
            "$.mfu");
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"parallelism": {"tp": 0}})"));
            }),
            "$.parallelism.tp");
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"nic_total_bw_gbps": -1})"));
            }),
            "$.nic_total_bw_gbps");
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"engine": {"seed": -1}})"));
            }),
            "$.engine.seed");
}

TEST(SerdeErrors, UnknownEnumTokenAndPresetNamed) {
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"fabric": "warp"})"));
            }),
            "$.fabric");
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"model": "llama9000"})"));
            }),
            "$.model");
}

// ---- the core contract: the JSON path IS the compiled-in path --------------

TEST(SerdeEndToEnd, RunExperimentBitIdenticalThroughJsonOnAllFabrics) {
  for (net::FabricKind fabric :
       {net::FabricKind::kElectrical, net::FabricKind::kOpusPhotonic,
        net::FabricKind::kStaticRing, net::FabricKind::kRotor}) {
    core::ExperimentConfig cfg = config::table3_cell(8);
    cfg.fabric = fabric;
    core::ExperimentConfig from_json_cfg;
    config::from_json(json::parse(json::dump(config::to_json(cfg))),
                      from_json_cfg);
    ASSERT_EQ(from_json_cfg, cfg) << config::to_token(fabric);

    const core::ExperimentResult direct = core::run_experiment(cfg);
    const core::ExperimentResult via_json =
        core::run_experiment(from_json_cfg);
    // Bit-identical result documents (covers every serialized field).
    EXPECT_EQ(json::dump(config::to_json(direct)),
              json::dump(config::to_json(via_json)))
        << config::to_token(fabric);
  }
}

}  // namespace
