#include "config/serde.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.h"

namespace opus::config {

SerdeError::SerdeError(std::string path, const std::string& message)
    : std::runtime_error("config error at " + path + ": " + message),
      path_(std::move(path)) {}

namespace {

using json::Value;

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  throw SerdeError(path, message);
}

// ---- typed scalar readers (every error carries the JSON path) --------------

bool read_bool(const Value& j, const std::string& path) {
  if (!j.is_bool()) {
    fail(path, std::string("expected bool, got ") + json::kind_name(j.kind()));
  }
  return j.as_bool();
}

std::int64_t read_i64(const Value& j, const std::string& path,
                      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
                      std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  if (!j.is_int()) {
    fail(path, std::string("expected integer, got ") +
                   json::kind_name(j.kind()));
  }
  const std::int64_t v = j.as_int();
  if (v < min || v > max) {
    fail(path, "value " + std::to_string(v) + " out of range [" +
                   std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return v;
}

int read_int(const Value& j, const std::string& path,
             int min = std::numeric_limits<int>::min(),
             int max = std::numeric_limits<int>::max()) {
  return static_cast<int>(read_i64(j, path, min, max));
}

double read_double(const Value& j, const std::string& path) {
  if (!j.is_number()) {
    fail(path, std::string("expected number, got ") +
                   json::kind_name(j.kind()));
  }
  return j.as_double();
}

double read_double_min(const Value& j, const std::string& path, double min,
                       bool exclusive = false) {
  const double v = read_double(j, path);
  if (exclusive ? !(v > min) : !(v >= min)) {
    fail(path, "value must be " + std::string(exclusive ? "> " : ">= ") +
                   std::to_string(min));
  }
  return v;
}

std::string read_string(const Value& j, const std::string& path) {
  if (!j.is_string()) {
    fail(path, std::string("expected string, got ") +
                   json::kind_name(j.kind()));
  }
  return j.as_string();
}

std::uint64_t read_seed(const Value& j, const std::string& path) {
  return static_cast<std::uint64_t>(read_i64(j, path, 0));
}

/// Seeds are stored uint64 but serialized as JSON integers; the library's
/// own seeds are small, and a config author has no reason to cross 2^63.
Value seed_to_json(std::uint64_t seed) {
  ensure(seed <= static_cast<std::uint64_t>(
                     std::numeric_limits<std::int64_t>::max()),
         "config: seed exceeds the JSON integer range");
  return Value(static_cast<std::int64_t>(seed));
}

TimeNs read_time_ns(const Value& j, const std::string& path,
                    TimeNs min = 0) {
  return read_i64(j, path, min);
}

Bytes read_bytes(const Value& j, const std::string& path) {
  return read_i64(j, path, 0);
}

Bandwidth read_gbps(const Value& j, const std::string& path) {
  return Bandwidth::gbps(read_double_min(j, path, 0.0));
}

Value gbps_to_json(Bandwidth bw) { return Value(bw.gbps_value()); }

// ---- object reader with unknown-key rejection ------------------------------

class ObjReader {
 public:
  ObjReader(const Value& j, const std::string& path) : j_(j), path_(path) {
    if (!j.is_object()) {
      fail(path, std::string("expected object, got ") +
                     json::kind_name(j.kind()));
    }
  }

  /// Registers `name` as a known key and returns its value (or nullptr).
  const Value* key(const char* name) {
    known_.push_back(name);
    return j_.find(name);
  }

  std::string sub(const char* name) const { return path_ + "." + name; }

  /// Throws for any key in the object that was never registered.
  void finish() const {
    for (const auto& [k, v] : j_.entries()) {
      if (std::find(known_.begin(), known_.end(), k) == known_.end()) {
        fail(path_ + "." + k, "unknown key \"" + k + "\"");
      }
    }
  }

 private:
  const Value& j_;
  const std::string& path_;
  std::vector<std::string> known_;
};

// ---- preset registries -----------------------------------------------------

const std::vector<std::pair<const char*, workload::ModelConfig>>&
model_presets() {
  static const std::vector<std::pair<const char*, workload::ModelConfig>>
      presets = {
          {"llama3_8b", workload::ModelConfig::llama3_8b()},
          {"llama31_405b", workload::ModelConfig::llama31_405b()},
          {"gpt3_175b", workload::ModelConfig::gpt3_175b()},
          {"mixtral_8x7b", workload::ModelConfig::mixtral_8x7b()},
          {"test_tiny", workload::ModelConfig::test_tiny()},
      };
  return presets;
}

const std::vector<std::pair<const char*, workload::GpuSpec>>& gpu_presets() {
  static const std::vector<std::pair<const char*, workload::GpuSpec>>
      presets = {
          {"a100", workload::GpuSpec::a100()},
          {"h100", workload::GpuSpec::h100()},
          {"h200", workload::GpuSpec::h200()},
      };
  return presets;
}

template <class T>
const T* preset_named(
    const std::vector<std::pair<const char*, T>>& presets,
    std::string_view name) {
  for (const auto& [n, v] : presets) {
    if (name == n) return &v;
  }
  return nullptr;
}

template <class T>
const char* preset_matching(
    const std::vector<std::pair<const char*, T>>& presets, const T& v) {
  for (const auto& [n, p] : presets) {
    if (v == p) return n;
  }
  return nullptr;
}

template <class T>
T resolve_preset(const std::vector<std::pair<const char*, T>>& presets,
                 const std::string& name, const std::string& path,
                 const char* what) {
  const T* p = preset_named(presets, name);
  if (p == nullptr) {
    std::string known;
    for (const auto& [n, v] : presets) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    fail(path, std::string("unknown ") + what + " preset \"" + name +
                   "\" (known: " + known + ")");
  }
  return *p;
}

}  // namespace

// ---- enums -----------------------------------------------------------------

const char* to_token(net::FabricKind f) {
  switch (f) {
    case net::FabricKind::kElectrical: return "electrical";
    case net::FabricKind::kOpusPhotonic: return "opus";
    case net::FabricKind::kStaticRing: return "ring";
    case net::FabricKind::kRotor: return "rotor";
  }
  return "?";
}

net::FabricKind fabric_kind_from_token(std::string_view s,
                                       const std::string& path) {
  if (s == "electrical") return net::FabricKind::kElectrical;
  if (s == "opus") return net::FabricKind::kOpusPhotonic;
  if (s == "ring") return net::FabricKind::kStaticRing;
  if (s == "rotor") return net::FabricKind::kRotor;
  fail(path, "unknown fabric \"" + std::string(s) +
                 "\" (expected electrical|opus|ring|rotor)");
}

const char* to_token(workload::PipelineSchedule s) {
  switch (s) {
    case workload::PipelineSchedule::k1F1B: return "1f1b";
    case workload::PipelineSchedule::kGpipe: return "gpipe";
  }
  return "?";
}

workload::PipelineSchedule pipeline_schedule_from_token(
    std::string_view s, const std::string& path) {
  if (s == "1f1b") return workload::PipelineSchedule::k1F1B;
  if (s == "gpipe") return workload::PipelineSchedule::kGpipe;
  fail(path, "unknown pipeline schedule \"" + std::string(s) +
                 "\" (expected 1f1b|gpipe)");
}

const char* to_token(fleet::PlacementPolicy p) {
  switch (p) {
    case fleet::PlacementPolicy::kFirstFit: return "first_fit";
    case fleet::PlacementPolicy::kRailAware: return "rail_aware";
  }
  return "?";
}

fleet::PlacementPolicy placement_policy_from_token(std::string_view s,
                                                   const std::string& path) {
  if (s == "first_fit") return fleet::PlacementPolicy::kFirstFit;
  if (s == "rail_aware") return fleet::PlacementPolicy::kRailAware;
  fail(path, "unknown placement policy \"" + std::string(s) +
                 "\" (expected first_fit|rail_aware)");
}

// ---- ModelConfig -----------------------------------------------------------
// name, n_layers, hidden, n_heads, n_kv_heads, ffn_hidden, vocab, seq_len,
// swiglu, dtype_bytes, grad_dtype_bytes, n_experts, experts_per_token.
static_assert(field_count<workload::ModelConfig> == 13,
              "ModelConfig changed: wire the new/removed field into "
              "to_json/from_json below, then update this count");

json::Value to_json(const workload::ModelConfig& v,
                    const workload::ModelConfig& defaults) {
  if (const char* name = preset_matching(model_presets(), v)) {
    return Value(name);
  }
  Value o = Value::object();
  if (v.name != defaults.name) o.set("name", Value(v.name));
  if (v.n_layers != defaults.n_layers) o.set("n_layers", Value(v.n_layers));
  if (v.hidden != defaults.hidden) o.set("hidden", Value(v.hidden));
  if (v.n_heads != defaults.n_heads) o.set("n_heads", Value(v.n_heads));
  if (v.n_kv_heads != defaults.n_kv_heads) {
    o.set("n_kv_heads", Value(v.n_kv_heads));
  }
  if (v.ffn_hidden != defaults.ffn_hidden) {
    o.set("ffn_hidden", Value(v.ffn_hidden));
  }
  if (v.vocab != defaults.vocab) o.set("vocab", Value(v.vocab));
  if (v.seq_len != defaults.seq_len) o.set("seq_len", Value(v.seq_len));
  if (v.swiglu != defaults.swiglu) o.set("swiglu", Value(v.swiglu));
  if (v.dtype_bytes != defaults.dtype_bytes) {
    o.set("dtype_bytes", Value(v.dtype_bytes));
  }
  if (v.grad_dtype_bytes != defaults.grad_dtype_bytes) {
    o.set("grad_dtype_bytes", Value(v.grad_dtype_bytes));
  }
  if (v.n_experts != defaults.n_experts) {
    o.set("n_experts", Value(v.n_experts));
  }
  if (v.experts_per_token != defaults.experts_per_token) {
    o.set("experts_per_token", Value(v.experts_per_token));
  }
  return o;
}

void from_json(const json::Value& j, workload::ModelConfig& v,
               const std::string& path) {
  if (j.is_string()) {
    v = resolve_preset(model_presets(), j.as_string(), path, "model");
    return;
  }
  ObjReader r(j, path);
  if (const Value* p = r.key("preset")) {
    v = resolve_preset(model_presets(), read_string(*p, r.sub("preset")),
                       r.sub("preset"), "model");
  }
  if (const Value* p = r.key("name")) v.name = read_string(*p, r.sub("name"));
  if (const Value* p = r.key("n_layers")) {
    v.n_layers = read_int(*p, r.sub("n_layers"), 0);
  }
  if (const Value* p = r.key("hidden")) {
    v.hidden = read_int(*p, r.sub("hidden"), 0);
  }
  if (const Value* p = r.key("n_heads")) {
    v.n_heads = read_int(*p, r.sub("n_heads"), 0);
  }
  if (const Value* p = r.key("n_kv_heads")) {
    v.n_kv_heads = read_int(*p, r.sub("n_kv_heads"), 0);
  }
  if (const Value* p = r.key("ffn_hidden")) {
    v.ffn_hidden = read_int(*p, r.sub("ffn_hidden"), 0);
  }
  if (const Value* p = r.key("vocab")) {
    v.vocab = read_int(*p, r.sub("vocab"), 0);
  }
  if (const Value* p = r.key("seq_len")) {
    v.seq_len = read_int(*p, r.sub("seq_len"), 0);
  }
  if (const Value* p = r.key("swiglu")) {
    v.swiglu = read_bool(*p, r.sub("swiglu"));
  }
  if (const Value* p = r.key("dtype_bytes")) {
    v.dtype_bytes = read_int(*p, r.sub("dtype_bytes"), 1);
  }
  if (const Value* p = r.key("grad_dtype_bytes")) {
    v.grad_dtype_bytes = read_int(*p, r.sub("grad_dtype_bytes"), 1);
  }
  if (const Value* p = r.key("n_experts")) {
    v.n_experts = read_int(*p, r.sub("n_experts"), 0);
  }
  if (const Value* p = r.key("experts_per_token")) {
    v.experts_per_token = read_int(*p, r.sub("experts_per_token"), 0);
  }
  r.finish();
}

// ---- GpuSpec ---------------------------------------------------------------
// name, peak_flops, hbm_bytes_per_sec.
static_assert(field_count<workload::GpuSpec> == 3,
              "GpuSpec changed: wire the new/removed field into "
              "to_json/from_json below, then update this count");

json::Value to_json(const workload::GpuSpec& v,
                    const workload::GpuSpec& defaults) {
  if (const char* name = preset_matching(gpu_presets(), v)) {
    return Value(name);
  }
  Value o = Value::object();
  if (v.name != defaults.name) o.set("name", Value(v.name));
  if (v.peak_flops != defaults.peak_flops) {
    o.set("peak_flops", Value(v.peak_flops));
  }
  if (v.hbm_bytes_per_sec != defaults.hbm_bytes_per_sec) {
    o.set("hbm_bytes_per_sec", Value(v.hbm_bytes_per_sec));
  }
  return o;
}

void from_json(const json::Value& j, workload::GpuSpec& v,
               const std::string& path) {
  if (j.is_string()) {
    v = resolve_preset(gpu_presets(), j.as_string(), path, "GPU");
    return;
  }
  ObjReader r(j, path);
  if (const Value* p = r.key("preset")) {
    v = resolve_preset(gpu_presets(), read_string(*p, r.sub("preset")),
                       r.sub("preset"), "GPU");
  }
  if (const Value* p = r.key("name")) v.name = read_string(*p, r.sub("name"));
  if (const Value* p = r.key("peak_flops")) {
    v.peak_flops = read_double_min(*p, r.sub("peak_flops"), 0.0, true);
  }
  if (const Value* p = r.key("hbm_bytes_per_sec")) {
    v.hbm_bytes_per_sec =
        read_double_min(*p, r.sub("hbm_bytes_per_sec"), 0.0, true);
  }
  r.finish();
}

// ---- ParallelismConfig -----------------------------------------------------
// tp, cp, dp, pp, ep, fsdp, n_microbatches, microbatch_size.
static_assert(field_count<workload::ParallelismConfig> == 8,
              "ParallelismConfig changed: wire the new/removed field into "
              "to_json/from_json below, then update this count");

json::Value to_json(const workload::ParallelismConfig& v,
                    const workload::ParallelismConfig& defaults) {
  Value o = Value::object();
  if (v.tp != defaults.tp) o.set("tp", Value(v.tp));
  if (v.cp != defaults.cp) o.set("cp", Value(v.cp));
  if (v.dp != defaults.dp) o.set("dp", Value(v.dp));
  if (v.pp != defaults.pp) o.set("pp", Value(v.pp));
  if (v.ep != defaults.ep) o.set("ep", Value(v.ep));
  if (v.fsdp != defaults.fsdp) o.set("fsdp", Value(v.fsdp));
  if (v.n_microbatches != defaults.n_microbatches) {
    o.set("n_microbatches", Value(v.n_microbatches));
  }
  if (v.microbatch_size != defaults.microbatch_size) {
    o.set("microbatch_size", Value(v.microbatch_size));
  }
  return o;
}

void from_json(const json::Value& j, workload::ParallelismConfig& v,
               const std::string& path) {
  ObjReader r(j, path);
  if (const Value* p = r.key("tp")) v.tp = read_int(*p, r.sub("tp"), 1);
  if (const Value* p = r.key("cp")) v.cp = read_int(*p, r.sub("cp"), 1);
  if (const Value* p = r.key("dp")) v.dp = read_int(*p, r.sub("dp"), 1);
  if (const Value* p = r.key("pp")) v.pp = read_int(*p, r.sub("pp"), 1);
  if (const Value* p = r.key("ep")) v.ep = read_int(*p, r.sub("ep"), 1);
  if (const Value* p = r.key("fsdp")) v.fsdp = read_bool(*p, r.sub("fsdp"));
  if (const Value* p = r.key("n_microbatches")) {
    v.n_microbatches = read_int(*p, r.sub("n_microbatches"), 1);
  }
  if (const Value* p = r.key("microbatch_size")) {
    v.microbatch_size = read_int(*p, r.sub("microbatch_size"), 1);
  }
  r.finish();
}

// ---- IterationOptions ------------------------------------------------------
// pipeline_schedule, simulate_tp_comm, bwd_regather, simulate_ep_comm,
// nvlink_bw. nvlink_bw is deliberately NOT exposed: core::build_tenant
// overwrites it with ExperimentConfig::nvlink_bw, so the experiment-level
// key is the one knob (see the field's comment in workload/iteration.h).
static_assert(field_count<workload::IterationOptions> == 5,
              "IterationOptions changed: wire the new/removed field into "
              "to_json/from_json below, then update this count");

json::Value to_json(const workload::IterationOptions& v,
                    const workload::IterationOptions& defaults) {
  Value o = Value::object();
  if (v.pipeline_schedule != defaults.pipeline_schedule) {
    o.set("pipeline_schedule", Value(to_token(v.pipeline_schedule)));
  }
  if (v.simulate_tp_comm != defaults.simulate_tp_comm) {
    o.set("simulate_tp_comm", Value(v.simulate_tp_comm));
  }
  if (v.bwd_regather != defaults.bwd_regather) {
    o.set("bwd_regather", Value(v.bwd_regather));
  }
  if (v.simulate_ep_comm != defaults.simulate_ep_comm) {
    o.set("simulate_ep_comm", Value(v.simulate_ep_comm));
  }
  return o;
}

void from_json(const json::Value& j, workload::IterationOptions& v,
               const std::string& path) {
  ObjReader r(j, path);
  if (const Value* p = r.key("pipeline_schedule")) {
    v.pipeline_schedule = pipeline_schedule_from_token(
        read_string(*p, r.sub("pipeline_schedule")),
        r.sub("pipeline_schedule"));
  }
  if (const Value* p = r.key("simulate_tp_comm")) {
    v.simulate_tp_comm = read_bool(*p, r.sub("simulate_tp_comm"));
  }
  if (const Value* p = r.key("bwd_regather")) {
    v.bwd_regather = read_bool(*p, r.sub("bwd_regather"));
  }
  if (const Value* p = r.key("simulate_ep_comm")) {
    v.simulate_ep_comm = read_bool(*p, r.sub("simulate_ep_comm"));
  }
  r.finish();
}

// ---- IterationEngine::Options ----------------------------------------------
// dispatch_min, dispatch_max, seed.
static_assert(field_count<workload::IterationEngine::Options> == 3,
              "IterationEngine::Options changed: wire the new/removed field "
              "into to_json/from_json below, then update this count");

json::Value to_json(const workload::IterationEngine::Options& v,
                    const workload::IterationEngine::Options& defaults) {
  Value o = Value::object();
  if (v.dispatch_min != defaults.dispatch_min) {
    o.set("dispatch_min_ns", Value(v.dispatch_min));
  }
  if (v.dispatch_max != defaults.dispatch_max) {
    o.set("dispatch_max_ns", Value(v.dispatch_max));
  }
  if (v.seed != defaults.seed) o.set("seed", seed_to_json(v.seed));
  return o;
}

void from_json(const json::Value& j, workload::IterationEngine::Options& v,
               const std::string& path) {
  ObjReader r(j, path);
  if (const Value* p = r.key("dispatch_min_ns")) {
    v.dispatch_min = read_time_ns(*p, r.sub("dispatch_min_ns"));
  }
  if (const Value* p = r.key("dispatch_max_ns")) {
    v.dispatch_max = read_time_ns(*p, r.sub("dispatch_max_ns"));
  }
  if (const Value* p = r.key("seed")) {
    v.seed = read_seed(*p, r.sub("seed"));
  }
  r.finish();
}

// ---- FaultConfig -----------------------------------------------------------
// enabled, mtbf_per_port, mttr, seed, horizon, max_failures.
static_assert(field_count<core::FaultConfig> == 6,
              "FaultConfig changed: wire the new/removed field into "
              "to_json/from_json below, then update this count");

json::Value to_json(const core::FaultConfig& v,
                    const core::FaultConfig& defaults) {
  Value o = Value::object();
  if (v.enabled != defaults.enabled) o.set("enabled", Value(v.enabled));
  if (v.mtbf_per_port != defaults.mtbf_per_port) {
    o.set("mtbf_per_port_ns", Value(v.mtbf_per_port));
  }
  if (v.mttr != defaults.mttr) o.set("mttr_ns", Value(v.mttr));
  if (v.seed != defaults.seed) o.set("seed", seed_to_json(v.seed));
  if (v.horizon != defaults.horizon) o.set("horizon_ns", Value(v.horizon));
  if (v.max_failures != defaults.max_failures) {
    o.set("max_failures", Value(v.max_failures));
  }
  return o;
}

void from_json(const json::Value& j, core::FaultConfig& v,
               const std::string& path) {
  ObjReader r(j, path);
  if (const Value* p = r.key("enabled")) {
    v.enabled = read_bool(*p, r.sub("enabled"));
  }
  if (const Value* p = r.key("mtbf_per_port_ns")) {
    v.mtbf_per_port = read_time_ns(*p, r.sub("mtbf_per_port_ns"), 1);
  }
  if (const Value* p = r.key("mttr_ns")) {
    v.mttr = read_time_ns(*p, r.sub("mttr_ns"));
  }
  if (const Value* p = r.key("seed")) v.seed = read_seed(*p, r.sub("seed"));
  if (const Value* p = r.key("horizon_ns")) {
    v.horizon = read_time_ns(*p, r.sub("horizon_ns"));
  }
  if (const Value* p = r.key("max_failures")) {
    v.max_failures = read_int(*p, r.sub("max_failures"), 0);
  }
  r.finish();
}

// ---- TelemetryConfig -------------------------------------------------------
// metrics, series_path, chrome_trace_path, sample_interval, self_profile.
static_assert(field_count<obs::TelemetryConfig> == 5,
              "TelemetryConfig changed: wire the new/removed field into "
              "to_json/from_json below, then update this count");

json::Value to_json(const obs::TelemetryConfig& v,
                    const obs::TelemetryConfig& defaults) {
  Value o = Value::object();
  if (v.metrics != defaults.metrics) o.set("metrics", Value(v.metrics));
  if (v.series_path != defaults.series_path) {
    o.set("series_path", Value(v.series_path));
  }
  if (v.chrome_trace_path != defaults.chrome_trace_path) {
    o.set("chrome_trace_path", Value(v.chrome_trace_path));
  }
  if (v.sample_interval != defaults.sample_interval) {
    o.set("sample_interval_ns", Value(v.sample_interval));
  }
  if (v.self_profile != defaults.self_profile) {
    o.set("self_profile", Value(v.self_profile));
  }
  return o;
}

void from_json(const json::Value& j, obs::TelemetryConfig& v,
               const std::string& path) {
  ObjReader r(j, path);
  if (const Value* p = r.key("metrics")) {
    v.metrics = read_bool(*p, r.sub("metrics"));
  }
  if (const Value* p = r.key("series_path")) {
    v.series_path = read_string(*p, r.sub("series_path"));
  }
  if (const Value* p = r.key("chrome_trace_path")) {
    v.chrome_trace_path = read_string(*p, r.sub("chrome_trace_path"));
  }
  if (const Value* p = r.key("sample_interval_ns")) {
    v.sample_interval = read_time_ns(*p, r.sub("sample_interval_ns"), 1);
  }
  if (const Value* p = r.key("self_profile")) {
    v.self_profile = read_bool(*p, r.sub("self_profile"));
  }
  r.finish();
}

// ---- SweepOptions ----------------------------------------------------------
// threads, use_shard.
static_assert(field_count<core::SweepOptions> == 2,
              "SweepOptions changed: wire the new/removed field into "
              "to_json/from_json below, then update this count");

json::Value to_json(const core::SweepOptions& v,
                    const core::SweepOptions& defaults) {
  Value o = Value::object();
  if (v.threads != defaults.threads) o.set("threads", Value(v.threads));
  if (v.use_shard != defaults.use_shard) {
    o.set("use_shard", Value(v.use_shard));
  }
  return o;
}

void from_json(const json::Value& j, core::SweepOptions& v,
               const std::string& path) {
  ObjReader r(j, path);
  if (const Value* p = r.key("threads")) {
    v.threads = read_int(*p, r.sub("threads"));
  }
  if (const Value* p = r.key("use_shard")) {
    v.use_shard = read_bool(*p, r.sub("use_shard"));
  }
  r.finish();
}

// ---- ExperimentConfig ------------------------------------------------------
// model, parallelism, gpus_per_node, fabric, rotor_slot_time,
// rotor_port_spread, nic_ports, nic_total_bw, nvlink_bw, ocs_reconfig_delay,
// mgmt_bw, gpu, mfu, activation_recompute, iteration, engine, provisioning,
// mgmt_offload_threshold, iterations, record_compute_trace, faults,
// telemetry.
static_assert(field_count<core::ExperimentConfig> == 22,
              "ExperimentConfig changed: wire the new/removed field into "
              "to_json/from_json below, then update this count");

json::Value to_json(const core::ExperimentConfig& v,
                    const core::ExperimentConfig& defaults) {
  Value o = Value::object();
  if (!(v.model == defaults.model)) {
    o.set("model", to_json(v.model, defaults.model));
  }
  if (!(v.parallelism == defaults.parallelism)) {
    o.set("parallelism", to_json(v.parallelism, defaults.parallelism));
  }
  if (v.gpus_per_node != defaults.gpus_per_node) {
    o.set("gpus_per_node", Value(v.gpus_per_node));
  }
  if (v.fabric != defaults.fabric) {
    o.set("fabric", Value(to_token(v.fabric)));
  }
  if (v.rotor_slot_time != defaults.rotor_slot_time) {
    o.set("rotor_slot_time_ns", Value(v.rotor_slot_time));
  }
  if (v.rotor_port_spread != defaults.rotor_port_spread) {
    o.set("rotor_port_spread", Value(v.rotor_port_spread));
  }
  if (v.nic_ports != defaults.nic_ports) {
    o.set("nic_ports", Value(v.nic_ports));
  }
  if (!(v.nic_total_bw == defaults.nic_total_bw)) {
    o.set("nic_total_bw_gbps", gbps_to_json(v.nic_total_bw));
  }
  if (!(v.nvlink_bw == defaults.nvlink_bw)) {
    o.set("nvlink_bw_gbps", gbps_to_json(v.nvlink_bw));
  }
  if (v.ocs_reconfig_delay != defaults.ocs_reconfig_delay) {
    o.set("ocs_reconfig_delay_ns", Value(v.ocs_reconfig_delay));
  }
  if (!(v.mgmt_bw == defaults.mgmt_bw)) {
    o.set("mgmt_bw_gbps", gbps_to_json(v.mgmt_bw));
  }
  if (!(v.gpu == defaults.gpu)) o.set("gpu", to_json(v.gpu, defaults.gpu));
  if (v.mfu != defaults.mfu) o.set("mfu", Value(v.mfu));
  if (v.activation_recompute != defaults.activation_recompute) {
    o.set("activation_recompute", Value(v.activation_recompute));
  }
  if (!(v.iteration == defaults.iteration)) {
    o.set("iteration", to_json(v.iteration, defaults.iteration));
  }
  if (!(v.engine == defaults.engine)) {
    o.set("engine", to_json(v.engine, defaults.engine));
  }
  if (v.provisioning != defaults.provisioning) {
    o.set("provisioning", Value(v.provisioning));
  }
  if (v.mgmt_offload_threshold != defaults.mgmt_offload_threshold) {
    o.set("mgmt_offload_threshold_bytes", Value(v.mgmt_offload_threshold));
  }
  if (v.iterations != defaults.iterations) {
    o.set("iterations", Value(v.iterations));
  }
  if (v.record_compute_trace != defaults.record_compute_trace) {
    o.set("record_compute_trace", Value(v.record_compute_trace));
  }
  if (!(v.faults == defaults.faults)) {
    o.set("faults", to_json(v.faults, defaults.faults));
  }
  if (!(v.telemetry == defaults.telemetry)) {
    o.set("telemetry", to_json(v.telemetry, defaults.telemetry));
  }
  return o;
}

void from_json(const json::Value& j, core::ExperimentConfig& v,
               const std::string& path) {
  ObjReader r(j, path);
  if (const Value* p = r.key("model")) from_json(*p, v.model, r.sub("model"));
  if (const Value* p = r.key("parallelism")) {
    from_json(*p, v.parallelism, r.sub("parallelism"));
  }
  if (const Value* p = r.key("gpus_per_node")) {
    v.gpus_per_node = read_int(*p, r.sub("gpus_per_node"), 1);
  }
  if (const Value* p = r.key("fabric")) {
    v.fabric = fabric_kind_from_token(read_string(*p, r.sub("fabric")),
                                      r.sub("fabric"));
  }
  if (const Value* p = r.key("rotor_slot_time_ns")) {
    v.rotor_slot_time = read_time_ns(*p, r.sub("rotor_slot_time_ns"), 1);
  }
  if (const Value* p = r.key("rotor_port_spread")) {
    v.rotor_port_spread = read_int(*p, r.sub("rotor_port_spread"), 1);
  }
  if (const Value* p = r.key("nic_ports")) {
    v.nic_ports = read_int(*p, r.sub("nic_ports"), 1);
  }
  if (const Value* p = r.key("nic_total_bw_gbps")) {
    v.nic_total_bw = read_gbps(*p, r.sub("nic_total_bw_gbps"));
  }
  if (const Value* p = r.key("nvlink_bw_gbps")) {
    v.nvlink_bw = read_gbps(*p, r.sub("nvlink_bw_gbps"));
  }
  if (const Value* p = r.key("ocs_reconfig_delay_ns")) {
    v.ocs_reconfig_delay = read_time_ns(*p, r.sub("ocs_reconfig_delay_ns"));
  }
  if (const Value* p = r.key("mgmt_bw_gbps")) {
    v.mgmt_bw = read_gbps(*p, r.sub("mgmt_bw_gbps"));
  }
  if (const Value* p = r.key("gpu")) from_json(*p, v.gpu, r.sub("gpu"));
  if (const Value* p = r.key("mfu")) {
    v.mfu = read_double(*p, r.sub("mfu"));
    if (v.mfu <= 0.0 || v.mfu > 1.0) {
      fail(r.sub("mfu"), "MFU must be in (0, 1]");
    }
  }
  if (const Value* p = r.key("activation_recompute")) {
    v.activation_recompute = read_bool(*p, r.sub("activation_recompute"));
  }
  if (const Value* p = r.key("iteration")) {
    from_json(*p, v.iteration, r.sub("iteration"));
  }
  if (const Value* p = r.key("engine")) {
    from_json(*p, v.engine, r.sub("engine"));
  }
  if (const Value* p = r.key("provisioning")) {
    v.provisioning = read_bool(*p, r.sub("provisioning"));
  }
  if (const Value* p = r.key("mgmt_offload_threshold_bytes")) {
    v.mgmt_offload_threshold =
        read_bytes(*p, r.sub("mgmt_offload_threshold_bytes"));
  }
  if (const Value* p = r.key("iterations")) {
    v.iterations = read_int(*p, r.sub("iterations"), 1);
  }
  if (const Value* p = r.key("record_compute_trace")) {
    v.record_compute_trace = read_bool(*p, r.sub("record_compute_trace"));
  }
  if (const Value* p = r.key("faults")) {
    from_json(*p, v.faults, r.sub("faults"));
  }
  if (const Value* p = r.key("telemetry")) {
    from_json(*p, v.telemetry, r.sub("telemetry"));
  }
  r.finish();
}

// ---- JobShape --------------------------------------------------------------
// name, model, parallelism, weight.
static_assert(field_count<fleet::JobShape> == 4,
              "JobShape changed: wire the new/removed field into "
              "to_json/from_json below, then update this count");

json::Value to_json(const fleet::JobShape& v, const fleet::JobShape& defaults) {
  Value o = Value::object();
  if (v.name != defaults.name) o.set("name", Value(v.name));
  if (!(v.model == defaults.model)) {
    o.set("model", to_json(v.model, defaults.model));
  }
  if (!(v.parallelism == defaults.parallelism)) {
    o.set("parallelism", to_json(v.parallelism, defaults.parallelism));
  }
  if (v.weight != defaults.weight) o.set("weight", Value(v.weight));
  return o;
}

void from_json(const json::Value& j, fleet::JobShape& v,
               const std::string& path) {
  ObjReader r(j, path);
  if (const Value* p = r.key("name")) v.name = read_string(*p, r.sub("name"));
  if (const Value* p = r.key("model")) from_json(*p, v.model, r.sub("model"));
  if (const Value* p = r.key("parallelism")) {
    from_json(*p, v.parallelism, r.sub("parallelism"));
  }
  if (const Value* p = r.key("weight")) {
    v.weight = read_double_min(*p, r.sub("weight"), 0.0, true);
  }
  r.finish();
}

// ---- ArrivalConfig ---------------------------------------------------------
// seed, n_jobs, mean_interarrival, iterations, shapes.
static_assert(field_count<fleet::ArrivalConfig> == 5,
              "ArrivalConfig changed: wire the new/removed field into "
              "to_json/from_json below, then update this count");

json::Value to_json(const fleet::ArrivalConfig& v,
                    const fleet::ArrivalConfig& defaults) {
  Value o = Value::object();
  if (v.seed != defaults.seed) o.set("seed", seed_to_json(v.seed));
  if (v.n_jobs != defaults.n_jobs) o.set("n_jobs", Value(v.n_jobs));
  if (v.mean_interarrival != defaults.mean_interarrival) {
    o.set("mean_interarrival_ns", Value(v.mean_interarrival));
  }
  if (v.iterations != defaults.iterations) {
    o.set("iterations", Value(v.iterations));
  }
  if (!(v.shapes == defaults.shapes)) {
    Value shapes = Value::array();
    for (const fleet::JobShape& s : v.shapes) {
      shapes.push_back(to_json(s, fleet::JobShape{}));
    }
    o.set("shapes", std::move(shapes));
  }
  return o;
}

void from_json(const json::Value& j, fleet::ArrivalConfig& v,
               const std::string& path) {
  ObjReader r(j, path);
  if (const Value* p = r.key("seed")) v.seed = read_seed(*p, r.sub("seed"));
  if (const Value* p = r.key("n_jobs")) {
    v.n_jobs = read_int(*p, r.sub("n_jobs"), 0);
  }
  if (const Value* p = r.key("mean_interarrival_ns")) {
    v.mean_interarrival = read_time_ns(*p, r.sub("mean_interarrival_ns"), 1);
  }
  if (const Value* p = r.key("iterations")) {
    v.iterations = read_int(*p, r.sub("iterations"), 1);
  }
  if (const Value* p = r.key("shapes")) {
    const std::string spath = r.sub("shapes");
    if (!p->is_array()) {
      fail(spath, std::string("expected array, got ") +
                      json::kind_name(p->kind()));
    }
    v.shapes.clear();
    for (std::size_t i = 0; i < p->size(); ++i) {
      fleet::JobShape shape;
      from_json((*p)[i], shape, spath + "[" + std::to_string(i) + "]");
      v.shapes.push_back(std::move(shape));
    }
  }
  r.finish();
}

// ---- FleetConfig -----------------------------------------------------------
// n_nodes, base, arrivals, policy, isolated_baselines, baseline_sweep,
// use_shard.
static_assert(field_count<fleet::FleetConfig> == 7,
              "FleetConfig changed: wire the new/removed field into "
              "to_json/from_json below, then update this count");

json::Value to_json(const fleet::FleetConfig& v,
                    const fleet::FleetConfig& defaults) {
  Value o = Value::object();
  if (v.n_nodes != defaults.n_nodes) o.set("n_nodes", Value(v.n_nodes));
  if (!(v.base == defaults.base)) {
    o.set("base", to_json(v.base, defaults.base));
  }
  if (!(v.arrivals == defaults.arrivals)) {
    o.set("arrivals", to_json(v.arrivals, defaults.arrivals));
  }
  if (v.policy != defaults.policy) {
    o.set("policy", Value(to_token(v.policy)));
  }
  if (v.isolated_baselines != defaults.isolated_baselines) {
    o.set("isolated_baselines", Value(v.isolated_baselines));
  }
  if (!(v.baseline_sweep == defaults.baseline_sweep)) {
    o.set("baseline_sweep", to_json(v.baseline_sweep, defaults.baseline_sweep));
  }
  if (v.use_shard != defaults.use_shard) {
    o.set("use_shard", Value(v.use_shard));
  }
  return o;
}

void from_json(const json::Value& j, fleet::FleetConfig& v,
               const std::string& path) {
  ObjReader r(j, path);
  if (const Value* p = r.key("n_nodes")) {
    v.n_nodes = read_int(*p, r.sub("n_nodes"), 1);
  }
  if (const Value* p = r.key("base")) from_json(*p, v.base, r.sub("base"));
  if (const Value* p = r.key("arrivals")) {
    from_json(*p, v.arrivals, r.sub("arrivals"));
  }
  if (const Value* p = r.key("policy")) {
    v.policy = placement_policy_from_token(read_string(*p, r.sub("policy")),
                                           r.sub("policy"));
  }
  if (const Value* p = r.key("isolated_baselines")) {
    v.isolated_baselines = read_bool(*p, r.sub("isolated_baselines"));
  }
  if (const Value* p = r.key("baseline_sweep")) {
    from_json(*p, v.baseline_sweep, r.sub("baseline_sweep"));
  }
  if (const Value* p = r.key("use_shard")) {
    v.use_shard = read_bool(*p, r.sub("use_shard"));
  }
  r.finish();
}

core::ExperimentConfig experiment_from_json(const json::Value& j,
                                            const std::string& path) {
  core::ExperimentConfig cfg;
  from_json(j, cfg, path);
  return cfg;
}

fleet::FleetConfig fleet_from_json(const json::Value& j,
                                   const std::string& path) {
  fleet::FleetConfig cfg;
  from_json(j, cfg, path);
  return cfg;
}

// ---- results ---------------------------------------------------------------

// requests, satisfied_immediately, reconfigurations, queued, total_wait,
// max_wait.
static_assert(field_count<core::OpusController::Stats> == 6,
              "OpusController::Stats changed: wire the new/removed field "
              "into to_json below, then update this count");

namespace {

Value controller_stats_to_json(const core::OpusController::Stats& s) {
  Value o = Value::object();
  o.set("requests", Value(s.requests));
  o.set("satisfied_immediately", Value(s.satisfied_immediately));
  o.set("reconfigurations", Value(s.reconfigurations));
  o.set("queued", Value(s.queued));
  o.set("total_wait_ns", Value(s.total_wait));
  o.set("max_wait_ns", Value(s.max_wait));
  return o;
}

// failures_injected, failures_skipped, repairs_completed.
static_assert(field_count<core::FaultProcess::Stats> == 3,
              "FaultProcess::Stats changed: wire the new/removed field into "
              "to_json below, then update this count");

Value fault_stats_to_json(const core::FaultProcess::Stats& s) {
  Value o = Value::object();
  o.set("failures_injected", Value(s.failures_injected));
  o.set("failures_skipped", Value(s.failures_skipped));
  o.set("repairs_completed", Value(s.repairs_completed));
  return o;
}

Value times_to_json(const std::vector<TimeNs>& times) {
  Value a = Value::array();
  for (TimeNs t : times) a.push_back(Value(t));
  return a;
}

}  // namespace

// iteration_times, steady_iteration_time, ocs_reconfigurations,
// ocs_dark_time, rotor_rotations, rotor_deferred_sends, controller,
// shim_speculative_requests, shim_mispredictions, recorder (not serialized:
// the trace is its own export format, trace/export), rail_bytes,
// scale_up_bytes, pxn_bytes, mgmt_bytes, multihop_bytes, fault_stats,
// fault_trace_size, telemetry (serialized as the finalized metrics snapshot
// only when the hub exists AND asked for metrics — series/trace are file
// exports, and a metrics-less hub must not perturb the result document).
static_assert(field_count<core::ExperimentResult> == 18,
              "ExperimentResult changed: wire the new/removed field into "
              "to_json below, then update this count");

json::Value to_json(const core::ExperimentResult& r) {
  Value o = Value::object();
  o.set("iteration_times_ns", times_to_json(r.iteration_times));
  o.set("steady_iteration_time_ns", Value(r.steady_iteration_time));
  o.set("ocs_reconfigurations", Value(r.ocs_reconfigurations));
  o.set("ocs_dark_time_ns", Value(r.ocs_dark_time));
  o.set("rotor_rotations", Value(r.rotor_rotations));
  o.set("rotor_deferred_sends", Value(r.rotor_deferred_sends));
  o.set("controller", controller_stats_to_json(r.controller));
  o.set("shim_speculative_requests", Value(r.shim_speculative_requests));
  o.set("shim_mispredictions", Value(r.shim_mispredictions));
  o.set("rail_bytes", Value(r.rail_bytes));
  o.set("scale_up_bytes", Value(r.scale_up_bytes));
  o.set("pxn_bytes", Value(r.pxn_bytes));
  o.set("mgmt_bytes", Value(r.mgmt_bytes));
  o.set("multihop_bytes", Value(r.multihop_bytes));
  o.set("fault_stats", fault_stats_to_json(r.fault_stats));
  o.set("fault_trace_size", Value(r.fault_trace_size));
  if (r.telemetry != nullptr && r.telemetry->config().metrics) {
    Value t = Value::object();
    t.set("metrics", json::Value(r.telemetry->final_metrics()));
    o.set("telemetry", std::move(t));
  }
  return o;
}

// id, arrival, shape_index, shape, iterations, engine_seed.
static_assert(field_count<fleet::JobSpec> == 6,
              "JobSpec changed: wire the new/removed field into to_json "
              "below, then update this count");

// first, count.
static_assert(field_count<net::NodeSpan> == 2,
              "NodeSpan changed: wire the new/removed field into to_json "
              "below, then update this count");

// spec, rejected, placement, start, finish, iteration_times, isolated_time,
// slowdown, rail_bytes, scale_up_bytes, pxn_bytes, mgmt_bytes,
// multihop_bytes, isolated_rail_bytes, isolated_multihop_bytes,
// rotor_rotations, rotor_deferred_sends, dark_time, dark_share, ports_lost,
// replacements, availability.
static_assert(field_count<fleet::FleetJobResult> == 22,
              "FleetJobResult changed: wire the new/removed field into "
              "to_json below, then update this count");

json::Value to_json(const fleet::FleetJobResult& r) {
  Value spec = Value::object();
  spec.set("id", Value(r.spec.id));
  spec.set("arrival_ns", Value(r.spec.arrival));
  spec.set("shape_index", Value(r.spec.shape_index));
  spec.set("shape_name", Value(r.spec.shape.name));
  spec.set("iterations", Value(r.spec.iterations));
  // Full 64-bit derived seed: as a decimal string, because JSON integers
  // stop at 2^63 and the SplitMix-derived per-job seeds use all 64 bits.
  spec.set("engine_seed", Value(std::to_string(r.spec.engine_seed)));

  Value placement = Value::object();
  placement.set("first", Value(r.placement.first));
  placement.set("count", Value(r.placement.count));

  Value o = Value::object();
  o.set("spec", std::move(spec));
  o.set("rejected", Value(r.rejected));
  o.set("placement", std::move(placement));
  o.set("start_ns", Value(r.start));
  o.set("finish_ns", Value(r.finish));
  o.set("queueing_delay_ns", Value(r.queueing_delay()));
  o.set("jct_ns", Value(r.jct()));
  o.set("iteration_times_ns", times_to_json(r.iteration_times));
  o.set("isolated_time_ns", Value(r.isolated_time));
  o.set("slowdown", Value(r.slowdown));
  o.set("rail_bytes", Value(r.rail_bytes));
  o.set("scale_up_bytes", Value(r.scale_up_bytes));
  o.set("pxn_bytes", Value(r.pxn_bytes));
  o.set("mgmt_bytes", Value(r.mgmt_bytes));
  o.set("multihop_bytes", Value(r.multihop_bytes));
  o.set("isolated_rail_bytes", Value(r.isolated_rail_bytes));
  o.set("isolated_multihop_bytes", Value(r.isolated_multihop_bytes));
  o.set("rotor_rotations", Value(r.rotor_rotations));
  o.set("rotor_deferred_sends", Value(r.rotor_deferred_sends));
  o.set("dark_time_ns", Value(r.dark_time));
  o.set("dark_share", Value(r.dark_share));
  o.set("ports_lost", Value(r.ports_lost));
  o.set("replacements", Value(r.replacements));
  o.set("availability", Value(r.availability));
  return o;
}

// index, count.
static_assert(field_count<core::SweepShard> == 2,
              "SweepShard changed: wire the new/removed field into to_json "
              "below, then update this count");

// config (not serialized here — the caller echoes the config it ran),
// shard, jobs, makespan, utilization, peak_fragmentation,
// peak_free_extents, rejected_jobs, telemetry (finalized metrics snapshot,
// present only when the hub exists and asked for metrics).
static_assert(field_count<fleet::FleetResult> == 9,
              "FleetResult changed: wire the new/removed field into to_json "
              "below, then update this count");

json::Value to_json(const fleet::FleetResult& r) {
  Value shard = Value::object();
  shard.set("index", Value(r.shard.index));
  shard.set("count", Value(r.shard.count));

  Value jobs = Value::array();
  for (const fleet::FleetJobResult& jr : r.jobs) jobs.push_back(to_json(jr));

  Value o = Value::object();
  o.set("shard", std::move(shard));
  o.set("jobs", std::move(jobs));
  o.set("makespan_ns", Value(r.makespan));
  o.set("utilization", Value(r.utilization));
  o.set("peak_fragmentation", Value(r.peak_fragmentation));
  o.set("peak_free_extents", Value(r.peak_free_extents));
  o.set("rejected_jobs", Value(r.rejected_jobs));
  if (r.telemetry != nullptr && r.telemetry->config().metrics) {
    Value t = Value::object();
    t.set("metrics", json::Value(r.telemetry->final_metrics()));
    o.set("telemetry", std::move(t));
  }
  return o;
}

}  // namespace opus::config
