#include "tsu/core/config.hpp"

namespace tsu::core {

namespace {

Result<double> number_field(const json::Object& obj, const char* key,
                            double minimum) {
  const json::Value* value = obj.find(key);
  if (value == nullptr)
    return make_error(Errc::kParseError,
                      std::string("missing field '") + key + "'");
  if (!value->is_number())
    return make_error(Errc::kParseError,
                      std::string("field '") + key + "' must be a number");
  const double v = value->as_double();
  if (v < minimum)
    return make_error(Errc::kOutOfRange,
                      std::string("field '") + key + "' below minimum");
  return v;
}

Result<double> optional_number(const json::Object& obj, const char* key,
                               double fallback, double minimum) {
  if (obj.find(key) == nullptr) return fallback;
  return number_field(obj, key, minimum);
}

sim::Duration ms(double value) { return sim::from_ms(value); }

}  // namespace

Result<sim::LatencyModel> latency_from_json(const json::Value& value) {
  if (!value.is_object())
    return make_error(Errc::kParseError, "latency model must be an object");
  const json::Object& obj = value.as_object();
  const json::Value* kind = obj.find("kind");
  if (kind == nullptr || !kind->is_string())
    return make_error(Errc::kParseError, "latency model needs string 'kind'");
  const std::string& name = kind->as_string();

  if (name == "constant") {
    Result<double> v = number_field(obj, "ms", 0);
    if (!v.ok()) return v.error();
    return sim::LatencyModel::constant(ms(v.value()));
  }
  if (name == "uniform") {
    Result<double> lo = number_field(obj, "lo_ms", 0);
    if (!lo.ok()) return lo.error();
    Result<double> hi = number_field(obj, "hi_ms", 0);
    if (!hi.ok()) return hi.error();
    if (hi.value() < lo.value())
      return make_error(Errc::kInvalidArgument, "uniform: hi_ms < lo_ms");
    return sim::LatencyModel::uniform(ms(lo.value()), ms(hi.value()));
  }
  if (name == "exponential") {
    Result<double> mean = number_field(obj, "mean_ms", 0);
    if (!mean.ok()) return mean.error();
    if (mean.value() <= 0)
      return make_error(Errc::kInvalidArgument,
                        "exponential: mean_ms must be > 0");
    return sim::LatencyModel::exponential(ms(mean.value()));
  }
  if (name == "lognormal") {
    Result<double> median = number_field(obj, "median_ms", 0);
    if (!median.ok()) return median.error();
    Result<double> sigma = number_field(obj, "sigma", 0);
    if (!sigma.ok()) return sigma.error();
    if (median.value() <= 0)
      return make_error(Errc::kInvalidArgument,
                        "lognormal: median_ms must be > 0");
    return sim::LatencyModel::lognormal(ms(median.value()), sigma.value());
  }
  if (name == "pareto") {
    Result<double> lo = number_field(obj, "lo_ms", 0);
    if (!lo.ok()) return lo.error();
    Result<double> hi = number_field(obj, "hi_ms", 0);
    if (!hi.ok()) return hi.error();
    Result<double> alpha = number_field(obj, "alpha", 0);
    if (!alpha.ok()) return alpha.error();
    if (lo.value() <= 0 || hi.value() <= lo.value() || alpha.value() <= 0)
      return make_error(Errc::kInvalidArgument, "pareto: bad parameters");
    return sim::LatencyModel::pareto(ms(lo.value()), ms(hi.value()),
                                     alpha.value());
  }
  return make_error(Errc::kParseError,
                    "unknown latency kind '" + name + "'");
}

Result<ExecutorConfig> config_from_json(std::string_view text) {
  Result<json::Value> doc = json::parse(text);
  if (!doc.ok()) return doc.error();
  return config_from_json(doc.value());
}

Result<ExecutorConfig> config_from_json(const json::Value& value) {
  if (!value.is_object())
    return make_error(Errc::kParseError, "config must be an object");
  ExecutorConfig config;
  bool saw_batch_mode = false;

  for (const auto& [key, field] : value.as_object()) {
    if (key == "seed") {
      if (!field.is_number() || field.as_int() < 0)
        return make_error(Errc::kParseError, "'seed' must be >= 0");
      config.seed = static_cast<std::uint64_t>(field.as_int());
    } else if (key == "channel") {
      if (!field.is_object())
        return make_error(Errc::kParseError, "'channel' must be an object");
      const json::Object& chan = field.as_object();
      for (const auto& [ckey, cval] : chan) {
        if (ckey == "latency") {
          Result<sim::LatencyModel> model = latency_from_json(cval);
          if (!model.ok()) return model.error();
          config.channel.latency = model.value();
        } else if (ckey == "loss") {
          if (!cval.is_number() || cval.as_double() < 0 ||
              cval.as_double() > 1)
            return make_error(Errc::kOutOfRange, "'loss' must be in [0,1]");
          config.channel.loss_probability = cval.as_double();
        } else if (ckey == "retransmit_timeout_ms") {
          Result<double> v =
              number_field(chan, "retransmit_timeout_ms", 0);
          if (!v.ok()) return v.error();
          config.channel.retransmit_timeout = ms(v.value());
        } else {
          return make_error(Errc::kParseError,
                            "unknown channel field '" + ckey + "'");
        }
      }
    } else if (key == "switch") {
      if (!field.is_object())
        return make_error(Errc::kParseError, "'switch' must be an object");
      const json::Object& sw = field.as_object();
      for (const auto& [skey, sval] : sw) {
        if (skey == "install") {
          Result<sim::LatencyModel> model = latency_from_json(sval);
          if (!model.ok()) return model.error();
          config.switch_config.install_latency = model.value();
        } else if (skey == "barrier_us") {
          Result<double> v = number_field(sw, "barrier_us", 0);
          if (!v.ok()) return v.error();
          config.switch_config.barrier_processing =
              static_cast<sim::Duration>(v.value() * 1e3);
        } else if (skey == "processing_us") {
          Result<double> v = number_field(sw, "processing_us", 0);
          if (!v.ok()) return v.error();
          config.switch_config.message_processing =
              static_cast<sim::Duration>(v.value() * 1e3);
        } else if (skey == "batch_replies") {
          if (!sval.is_bool())
            return make_error(Errc::kParseError,
                              "'batch_replies' must be a bool");
          config.switch_config.batch_replies = sval.as_bool();
        } else {
          return make_error(Errc::kParseError,
                            "unknown switch field '" + skey + "'");
        }
      }
    } else if (key == "use_barriers") {
      if (!field.is_bool())
        return make_error(Errc::kParseError, "'use_barriers' must be a bool");
      config.controller.use_barriers = field.as_bool();
    } else if (key == "max_in_flight") {
      if (!field.is_number() || field.as_int() < 1)
        return make_error(Errc::kOutOfRange, "'max_in_flight' must be >= 1");
      config.controller.max_in_flight =
          static_cast<std::size_t>(field.as_int());
    } else if (key == "batch_frames") {
      if (!field.is_bool())
        return make_error(Errc::kParseError, "'batch_frames' must be a bool");
      config.controller.batch_frames = field.as_bool();
    } else if (key == "batch_mode") {
      if (!field.is_string())
        return make_error(Errc::kParseError, "'batch_mode' must be a string");
      const std::optional<controller::BatchMode> mode =
          controller::batch_mode_from_string(field.as_string());
      if (!mode.has_value())
        return make_error(Errc::kParseError,
                          "unknown batch mode '" + field.as_string() +
                              "' (off | instant | window | adaptive)");
      config.controller.batch_mode = *mode;
      saw_batch_mode = true;
    } else if (key == "batch_window_ms") {
      if (!field.is_number() || field.as_double() < 0)
        return make_error(Errc::kOutOfRange, "'batch_window_ms' must be >= 0");
      config.controller.batch_window = ms(field.as_double());
    } else if (key == "batch_bytes") {
      if (!field.is_number() || field.as_int() < 1)
        return make_error(Errc::kOutOfRange, "'batch_bytes' must be >= 1");
      config.controller.batch_bytes =
          static_cast<std::size_t>(field.as_int());
    } else if (key == "admission") {
      if (!field.is_string())
        return make_error(Errc::kParseError, "'admission' must be a string");
      const std::optional<controller::AdmissionPolicy> policy =
          controller::admission_policy_from_string(field.as_string());
      if (!policy.has_value())
        return make_error(Errc::kParseError,
                          "unknown admission policy '" + field.as_string() +
                              "' (blind | conflict_aware | serialize)");
      config.controller.admission = *policy;
    } else if (key == "admission_release") {
      if (!field.is_string())
        return make_error(Errc::kParseError,
                          "'admission_release' must be a string");
      const std::optional<controller::AdmissionRelease> release =
          controller::admission_release_from_string(field.as_string());
      if (!release.has_value())
        return make_error(Errc::kParseError,
                          "unknown admission release '" + field.as_string() +
                              "' (request | round)");
      config.controller.admission_release = *release;
    } else if (key == "plan_cache") {
      if (!field.is_string() ||
          (field.as_string() != "on" && field.as_string() != "off"))
        return make_error(Errc::kParseError,
                          "'plan_cache' must be \"on\" or \"off\"");
      config.controller.plan_cache = field.as_string() == "on";
    } else if (key == "shards") {
      if (!field.is_number() || field.as_int() < 1 ||
          field.as_int() >
              static_cast<std::int64_t>(proto::kMaxXidShards))
        return make_error(Errc::kOutOfRange, "'shards' must be in [1, 256]");
      config.controller.shards = static_cast<std::size_t>(field.as_int());
    } else if (key == "partition") {
      if (!field.is_string())
        return make_error(Errc::kParseError, "'partition' must be a string");
      const std::optional<topo::PartitionScheme> scheme =
          topo::partition_scheme_from_string(field.as_string());
      if (!scheme.has_value())
        return make_error(Errc::kParseError,
                          "unknown partition scheme '" + field.as_string() +
                              "' (hash | block | greedy_cut)");
      config.controller.partition = *scheme;
    } else if (key == "exec") {
      if (!field.is_string())
        return make_error(Errc::kParseError, "'exec' must be a string");
      const std::optional<sim::ExecMode> mode =
          sim::exec_mode_from_string(field.as_string());
      if (!mode.has_value())
        return make_error(Errc::kParseError,
                          "unknown exec mode '" + field.as_string() +
                              "' (sequential | parallel)");
      config.controller.exec = *mode;
    } else if (key == "threads") {
      if (!field.is_number() || field.as_int() < 0)
        return make_error(Errc::kOutOfRange, "'threads' must be >= 0");
      config.controller.threads = static_cast<std::size_t>(field.as_int());
    } else if (key == "speculate") {
      if (!field.is_bool())
        return make_error(Errc::kParseError, "'speculate' must be a bool");
      config.controller.speculate = field.as_bool();
    } else if (key == "steal") {
      if (!field.is_bool())
        return make_error(Errc::kParseError, "'steal' must be a bool");
      config.controller.steal = field.as_bool();
    } else if (key == "flow") {
      if (!field.is_number() || field.as_int() < 0)
        return make_error(Errc::kParseError, "'flow' must be >= 0");
      config.flow = static_cast<FlowId>(field.as_int());
    } else if (key == "priority") {
      if (!field.is_number() || field.as_int() < 0 ||
          field.as_int() > 0xffff)
        return make_error(Errc::kOutOfRange, "'priority' out of range");
      config.priority = static_cast<std::uint16_t>(field.as_int());
    } else if (key == "interval_ms") {
      if (!field.is_number() || field.as_double() < 0)
        return make_error(Errc::kOutOfRange, "'interval_ms' must be >= 0");
      config.interval = ms(field.as_double());
    } else if (key == "faults") {
      Result<sim::FaultSchedule> schedule = sim::FaultSchedule::from_json(field);
      if (!schedule.ok()) return schedule.error();
      config.faults = std::move(schedule.value());
    } else if (key == "liveness_timeout_ms") {
      if (!field.is_number() || field.as_double() < 0)
        return make_error(Errc::kOutOfRange,
                          "'liveness_timeout_ms' must be >= 0");
      config.controller.liveness_timeout = ms(field.as_double());
    } else if (key == "failure_response") {
      if (!field.is_string())
        return make_error(Errc::kParseError,
                          "'failure_response' must be a string");
      const std::optional<controller::FailureResponse> response =
          controller::failure_response_from_string(field.as_string());
      if (!response.has_value())
        return make_error(Errc::kParseError,
                          "unknown failure response '" + field.as_string() +
                              "' (wait | rollback)");
      config.controller.failure_response = *response;
    } else if (key == "retry_backoff_ms") {
      if (!field.is_number() || field.as_double() < 0)
        return make_error(Errc::kOutOfRange, "'retry_backoff_ms' must be >= 0");
      config.controller.retry_backoff = ms(field.as_double());
    } else if (key == "resubmit") {
      if (!field.is_bool())
        return make_error(Errc::kParseError, "'resubmit' must be a bool");
      config.controller.resubmit_after_rollback = field.as_bool();
    } else if (key == "traffic") {
      if (!field.is_object())
        return make_error(Errc::kParseError, "'traffic' must be an object");
      const json::Object& traffic = field.as_object();
      for (const auto& [tkey, tval] : traffic) {
        if (tkey == "enabled") {
          if (!tval.is_bool())
            return make_error(Errc::kParseError, "'enabled' must be a bool");
          config.with_traffic = tval.as_bool();
        } else if (tkey == "interarrival") {
          Result<sim::LatencyModel> model = latency_from_json(tval);
          if (!model.ok()) return model.error();
          // A zero gap would re-inject at the same instant forever.
          if (!(model.value().mean() >= 1))
            return make_error(Errc::kOutOfRange,
                              "'interarrival' must be at least 1 ns");
          config.traffic_interarrival = model.value();
        } else if (tkey == "link") {
          Result<sim::LatencyModel> model = latency_from_json(tval);
          if (!model.ok()) return model.error();
          config.link_latency = model.value();
        } else if (tkey == "ttl") {
          if (!tval.is_number() || tval.as_int() < 1 ||
              tval.as_int() > 1024)
            return make_error(Errc::kOutOfRange, "'ttl' out of range");
          config.ttl = static_cast<int>(tval.as_int());
        } else if (tkey == "warmup_ms") {
          Result<double> v = optional_number(traffic, "warmup_ms", 5, 0);
          if (!v.ok()) return v.error();
          config.warmup = ms(v.value());
        } else if (tkey == "drain_ms") {
          Result<double> v = optional_number(traffic, "drain_ms", 20, 0);
          if (!v.ok()) return v.error();
          config.drain = ms(v.value());
        } else {
          return make_error(Errc::kParseError,
                            "unknown traffic field '" + tkey + "'");
        }
      }
    } else if (key == "service") {
      // The open-loop block belongs to the service document; rejecting it
      // here with a pointer beats the generic unknown-key error.
      return make_error(Errc::kParseError,
                        "'service' requires the service entry point "
                        "(service_config_from_json)");
    } else {
      return make_error(Errc::kParseError,
                        "unknown config field '" + key + "'");
    }
  }
  // An explicit batch_mode retires the legacy alias, whatever the key
  // order: "batch_mode": "off" really means off even next to
  // "batch_frames": true.
  if (saw_batch_mode) config.controller.batch_frames = false;
  return config;
}

namespace {

json::Value latency_to_json(const sim::LatencyModel& model) {
  json::Object obj;
  switch (model.kind) {
    case sim::LatencyKind::kConstant:
      obj.set("kind", json::Value("constant"));
      obj.set("ms", json::Value(model.a / 1e6));
      break;
    case sim::LatencyKind::kUniform:
      obj.set("kind", json::Value("uniform"));
      obj.set("lo_ms", json::Value(model.a / 1e6));
      obj.set("hi_ms", json::Value(model.b / 1e6));
      break;
    case sim::LatencyKind::kExponential:
      obj.set("kind", json::Value("exponential"));
      obj.set("mean_ms", json::Value(model.a / 1e6));
      break;
    case sim::LatencyKind::kLognormal:
      obj.set("kind", json::Value("lognormal"));
      obj.set("median_ms", json::Value(model.a / 1e6));
      obj.set("sigma", json::Value(model.b));
      break;
    case sim::LatencyKind::kPareto:
      obj.set("kind", json::Value("pareto"));
      obj.set("lo_ms", json::Value(model.a / 1e6));
      obj.set("hi_ms", json::Value(model.b / 1e6));
      obj.set("alpha", json::Value(model.c));
      break;
  }
  return json::Value(std::move(obj));
}

}  // namespace

json::Value config_to_json(const ExecutorConfig& config) {
  json::Object root;
  root.set("seed", json::Value(static_cast<std::int64_t>(config.seed)));

  json::Object channel;
  channel.set("latency", latency_to_json(config.channel.latency));
  channel.set("loss", json::Value(config.channel.loss_probability));
  channel.set("retransmit_timeout_ms",
              json::Value(sim::to_ms(config.channel.retransmit_timeout)));
  root.set("channel", json::Value(std::move(channel)));

  json::Object sw;
  sw.set("install", latency_to_json(config.switch_config.install_latency));
  sw.set("barrier_us",
         json::Value(sim::to_us(config.switch_config.barrier_processing)));
  sw.set("processing_us",
         json::Value(sim::to_us(config.switch_config.message_processing)));
  sw.set("batch_replies", json::Value(config.switch_config.batch_replies));
  root.set("switch", json::Value(std::move(sw)));

  root.set("use_barriers", json::Value(config.controller.use_barriers));
  root.set("max_in_flight", json::Value(static_cast<std::int64_t>(
                                config.controller.max_in_flight)));
  root.set("batch_frames", json::Value(config.controller.batch_frames));
  // Emitted only when explicit: parsing treats a present batch_mode as
  // retiring the legacy batch_frames alias, so writing "off" here would
  // strip instant-mode batching from a legacy config on a round trip.
  if (config.controller.batch_mode != controller::BatchMode::kOff)
    root.set("batch_mode",
             json::Value(controller::to_string(config.controller.batch_mode)));
  root.set("batch_window_ms",
           json::Value(sim::to_ms(config.controller.batch_window)));
  root.set("batch_bytes", json::Value(static_cast<std::int64_t>(
                              config.controller.batch_bytes)));
  root.set("admission",
           json::Value(controller::to_string(config.controller.admission)));
  root.set("admission_release",
           json::Value(
               controller::to_string(config.controller.admission_release)));
  root.set("plan_cache",
           json::Value(config.controller.plan_cache ? "on" : "off"));
  root.set("shards", json::Value(static_cast<std::int64_t>(
                         config.controller.shards)));
  root.set("partition",
           json::Value(topo::to_string(config.controller.partition)));
  root.set("exec", json::Value(sim::to_string(config.controller.exec)));
  root.set("threads", json::Value(static_cast<std::int64_t>(
                          config.controller.threads)));
  root.set("speculate", json::Value(config.controller.speculate));
  root.set("steal", json::Value(config.controller.steal));
  root.set("flow", json::Value(static_cast<std::int64_t>(config.flow)));
  root.set("priority",
           json::Value(static_cast<std::int64_t>(config.priority)));
  root.set("interval_ms", json::Value(sim::to_ms(config.interval)));

  root.set("liveness_timeout_ms",
           json::Value(sim::to_ms(config.controller.liveness_timeout)));
  root.set("failure_response",
           json::Value(
               controller::to_string(config.controller.failure_response)));
  root.set("retry_backoff_ms",
           json::Value(sim::to_ms(config.controller.retry_backoff)));
  root.set("resubmit", json::Value(config.controller.resubmit_after_rollback));
  // Emitted only when non-empty, so fault-free configs stay byte-stable.
  if (!config.faults.empty()) root.set("faults", config.faults.to_json());

  json::Object traffic;
  traffic.set("enabled", json::Value(config.with_traffic));
  traffic.set("interarrival", latency_to_json(config.traffic_interarrival));
  traffic.set("link", latency_to_json(config.link_latency));
  traffic.set("ttl", json::Value(static_cast<std::int64_t>(config.ttl)));
  traffic.set("warmup_ms", json::Value(sim::to_ms(config.warmup)));
  traffic.set("drain_ms", json::Value(sim::to_ms(config.drain)));
  root.set("traffic", json::Value(std::move(traffic)));

  return json::Value(std::move(root));
}

Result<ServiceConfig> service_config_from_json(std::string_view text) {
  Result<json::Value> doc = json::parse(text);
  if (!doc.ok()) return doc.error();
  return service_config_from_json(doc.value());
}

Result<ServiceConfig> service_config_from_json(const json::Value& value) {
  if (!value.is_object())
    return make_error(Errc::kParseError, "service config must be an object");

  // Split the document: the "service" block here, everything else through
  // the executor parser (which keeps rejecting unknown keys).
  json::Object exec_fields;
  const json::Value* service_block = nullptr;
  for (const auto& [key, field] : value.as_object()) {
    if (key == "service")
      service_block = &field;
    else
      exec_fields.set(key, field);
  }
  Result<ExecutorConfig> exec =
      config_from_json(json::Value(std::move(exec_fields)));
  if (!exec.ok()) return exec.error();

  ServiceConfig config;
  config.exec = std::move(exec).value();
  if (service_block == nullptr) return config;
  if (!service_block->is_object())
    return make_error(Errc::kParseError, "'service' must be an object");

  for (const auto& [key, field] : service_block->as_object()) {
    if (key == "flows") {
      if (!field.is_number() || field.as_int() < 1)
        return make_error(Errc::kOutOfRange, "'flows' must be >= 1");
      config.flows = static_cast<std::size_t>(field.as_int());
    } else if (key == "pool_switches") {
      if (!field.is_number() || field.as_int() < 1)
        return make_error(Errc::kOutOfRange, "'pool_switches' must be >= 1");
      config.pool_switches = static_cast<std::size_t>(field.as_int());
    } else if (key == "alternate_directions") {
      if (!field.is_bool())
        return make_error(Errc::kParseError,
                          "'alternate_directions' must be a bool");
      config.alternate_directions = field.as_bool();
    } else if (key == "rate_per_sec") {
      if (!field.is_number() || field.as_double() <= 0)
        return make_error(Errc::kOutOfRange, "'rate_per_sec' must be > 0");
      config.arrival_rate_per_sec = field.as_double();
    } else if (key == "trace_us") {
      if (!field.is_array())
        return make_error(Errc::kParseError, "'trace_us' must be an array");
      config.trace.clear();
      for (const json::Value& gap : field.as_array()) {
        if (!gap.is_number() || gap.as_double() < 0)
          return make_error(Errc::kOutOfRange,
                            "'trace_us' entries must be >= 0");
        config.trace.push_back(
            static_cast<sim::Duration>(gap.as_double() * 1e3));
      }
    } else if (key == "trace_cycle") {
      if (!field.is_bool())
        return make_error(Errc::kParseError, "'trace_cycle' must be a bool");
      config.trace_cycle = field.as_bool();
    } else if (key == "horizon_ms") {
      if (!field.is_number() || field.as_double() < 0)
        return make_error(Errc::kOutOfRange, "'horizon_ms' must be >= 0");
      config.horizon = ms(field.as_double());
    } else if (key == "target") {
      if (!field.is_number() || field.as_int() < 0)
        return make_error(Errc::kOutOfRange, "'target' must be >= 0");
      config.target_completions = static_cast<std::uint64_t>(field.as_int());
    } else if (key == "max_pending") {
      if (!field.is_number() || field.as_int() < 1)
        return make_error(Errc::kOutOfRange, "'max_pending' must be >= 1");
      config.max_pending = static_cast<std::size_t>(field.as_int());
    } else if (key == "submit_depth") {
      if (!field.is_number() || field.as_int() < 0)
        return make_error(Errc::kOutOfRange, "'submit_depth' must be >= 0");
      config.submit_depth = static_cast<std::size_t>(field.as_int());
    } else if (key == "classes") {
      if (!field.is_array() || field.as_array().empty())
        return make_error(Errc::kParseError,
                          "'classes' must be a non-empty array");
      config.classes.clear();
      for (const json::Value& entry : field.as_array()) {
        if (!entry.is_object())
          return make_error(Errc::kParseError,
                            "each class must be an object");
        ServiceClassConfig cls;
        for (const auto& [ckey, cval] : entry.as_object()) {
          if (!cval.is_number() || cval.as_double() < 0)
            return make_error(Errc::kOutOfRange,
                              "class field '" + ckey + "' must be >= 0");
          if (ckey == "rate_limit_per_sec")
            cls.rate_limit_per_sec = cval.as_double();
          else if (ckey == "burst")
            cls.burst = cval.as_double();
          else if (ckey == "weight")
            cls.weight = cval.as_double();
          else
            return make_error(Errc::kParseError,
                              "unknown class field '" + ckey + "'");
        }
        config.classes.push_back(cls);
      }
    } else if (key == "snapshot_interval_ms") {
      if (!field.is_number() || field.as_double() < 0)
        return make_error(Errc::kOutOfRange,
                          "'snapshot_interval_ms' must be >= 0");
      config.snapshot_interval = ms(field.as_double());
    } else if (key == "snapshot_window") {
      if (!field.is_number() || field.as_int() < 1)
        return make_error(Errc::kOutOfRange, "'snapshot_window' must be >= 1");
      config.snapshot_window = static_cast<std::size_t>(field.as_int());
    } else {
      return make_error(Errc::kParseError,
                        "unknown service field '" + key + "'");
    }
  }
  return config;
}

json::Value service_config_to_json(const ServiceConfig& config) {
  json::Value root = config_to_json(config.exec);

  json::Object service;
  service.set("flows",
              json::Value(static_cast<std::int64_t>(config.flows)));
  service.set("pool_switches", json::Value(static_cast<std::int64_t>(
                                   config.pool_switches)));
  service.set("alternate_directions",
              json::Value(config.alternate_directions));
  service.set("rate_per_sec", json::Value(config.arrival_rate_per_sec));
  if (!config.trace.empty()) {
    json::Array trace;
    for (const sim::Duration gap : config.trace)
      trace.emplace_back(static_cast<double>(gap) / 1e3);
    service.set("trace_us", json::Value(std::move(trace)));
    service.set("trace_cycle", json::Value(config.trace_cycle));
  }
  service.set("horizon_ms", json::Value(sim::to_ms(config.horizon)));
  service.set("target", json::Value(static_cast<std::int64_t>(
                            config.target_completions)));
  service.set("max_pending", json::Value(static_cast<std::int64_t>(
                                 config.max_pending)));
  service.set("submit_depth", json::Value(static_cast<std::int64_t>(
                                  config.submit_depth)));
  json::Array classes;
  for (const ServiceClassConfig& cls : config.classes) {
    json::Object entry;
    entry.set("rate_limit_per_sec", json::Value(cls.rate_limit_per_sec));
    entry.set("burst", json::Value(cls.burst));
    entry.set("weight", json::Value(cls.weight));
    classes.push_back(json::Value(std::move(entry)));
  }
  service.set("classes", json::Value(std::move(classes)));
  service.set("snapshot_interval_ms",
              json::Value(sim::to_ms(config.snapshot_interval)));
  service.set("snapshot_window", json::Value(static_cast<std::int64_t>(
                                     config.snapshot_window)));
  root.as_object().set("service", json::Value(std::move(service)));
  return root;
}

}  // namespace tsu::core
