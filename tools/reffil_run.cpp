// reffil_run — command-line driver for single experiments.
//
//   reffil_run --dataset PACS --method RefFiL --seed 7
//   reffil_run --dataset Digits-Five --method Finetune --order new --json
//   reffil_run --list
//
// Options:
//   --dataset NAME    Digits-Five | OfficeCaltech10 | PACS | FedDomainNet
//   --method NAME     Finetune | FedLwF | FedEWC | FedL2P | FedL2P+pool |
//                     FedDualPrompt | FedDualPrompt+pool | RefFiL
//   --order orig|new  domain order (default orig)
//   --seed N          experiment seed, a decimal u64 (default 7)
//   --scale S         smoke | scaled | full (default scaled)
//   --dropout P       client dropout probability in [0, 1] (default 0)
//   --fault-profile S transport fault spec, comma-separated key=value pairs
//                     (corrupt=P,poison=P,dup=P,latency=S,jitter=S,deadline=S,
//                     retries=N,backoff=S) — see fed/transport.hpp
//   --des SPEC        discrete-event federation, comma-separated key=value
//                     pairs (registered=N,sample=N,offline=P,diurnal=S,
//                     churn=R,rejoin=S,straggler=P,straggler_latency=S,
//                     compute=S,jitter=S,interval=S,shards=N) — see
//                     fed/scheduler.hpp. E.g. a million-client federation
//                     sampling 10k participants per round:
//                       --des registered=1000000,sample=10000
//   --compress SPEC   wire compression: none | f16 | q8, optionally with
//                     ,topk=F (fraction of delta entries uploaded, (0,1]) —
//                     see fed/compress.hpp. E.g. quantized broadcast plus
//                     top-10% sparsified q8 deltas:
//                       --compress q8,topk=0.1
//   --profile PATH    write an op-level Chrome trace (chrome://tracing) here
//   --serve-metrics P serve live /metrics, /healthz and /progress over HTTP
//                     on 127.0.0.1:P while the run executes (P is a decimal
//                     port in 0..65535; 0 = ephemeral port, printed to
//                     stderr). Implies --monitor. The
//                     REFFIL_METRICS_PORT env var is the flag's equivalent;
//                     REFFIL_METRICS_LINGER=SECONDS keeps the server up that
//                     long after the run so a scraper can read the final
//                     state (GET /quitquitquit ends the linger early).
//   --monitor SPEC    arm live telemetry without the HTTP server; SPEC is a
//                     comma-separated key=value list (norm_z=Z,norm_window=N,
//                     quarantine_rate=P,latency_slo=S,slo_burn=P,
//                     slo_window=N,accuracy_drop=PTS,recovery_rounds=N) — see
//                     fed/health.hpp. Empty SPEC ("") uses the defaults.
//   --json            machine-readable output (includes a "health" block for
//                     monitored runs, and the resolved worker-slot count
//                     "parallelism" beside the pool's "pool_threads")
//   --list            print datasets and methods, then exit
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "reffil/data/spec.hpp"
#include "reffil/fed/health.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/util/expo.hpp"
#include "reffil/util/obs.hpp"
#include "reffil/util/prof.hpp"
#include "reffil/util/thread_pool.hpp"

namespace {

using namespace reffil;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --dataset NAME --method NAME [--order orig|new] "
               "[--seed N] [--scale smoke|scaled|full] [--dropout P] "
               "[--fault-profile SPEC] [--des SPEC] [--compress SPEC] "
               "[--profile PATH] [--serve-metrics PORT] "
               "[--monitor SPEC] [--json]\n"
               "       %s --list\n",
               argv0, argv0);
  return 2;
}

std::optional<harness::MethodKind> parse_method(const std::string& name) {
  using K = harness::MethodKind;
  if (name == "Finetune") return K::kFinetune;
  if (name == "FedLwF") return K::kLwf;
  if (name == "FedEWC") return K::kEwc;
  if (name == "FedL2P") return K::kL2p;
  if (name == "FedL2P+pool") return K::kL2pPool;
  if (name == "FedDualPrompt") return K::kDualPrompt;
  if (name == "FedDualPrompt+pool") return K::kDualPromptPool;
  if (name == "RefFiL") return K::kRefFiL;
  return std::nullopt;
}

// Strict flag values: the whole string must parse, so "--seed abc" or
// "--dropout nan" is an error rather than seed 0 or dropout off.
std::optional<std::uint64_t> parse_seed(const char* text) {
  if (*text < '0' || *text > '9') return std::nullopt;  // no sign, no space
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return v;
}

std::optional<std::uint16_t> parse_port(const char* text) {
  const auto v = parse_seed(text);
  if (!v || *v > 65535) return std::nullopt;
  return static_cast<std::uint16_t>(*v);
}

std::optional<double> parse_probability(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0.0 && v <= 1.0)) {
    return std::nullopt;
  }
  return v;
}

// Sum of per-round selected participants — under --des this counts sampled
// cohort members (the nonzero-participation signal the CI smoke asserts on);
// dense runs count clients_per_round per round.
std::uint64_t total_participants(const fed::RunResult& result) {
  std::uint64_t total = 0;
  for (const auto& round : result.rounds) total += round.selected;
  return total;
}

// `parallelism` is the runner's resolved worker-slot count and
// `pool_threads` the global pool size, so a wall time can be read against
// the concurrency that produced it.
void print_json(const fed::RunResult& result, std::size_t parallelism) {
  std::printf("{\"method\":\"%s\",\"dataset\":\"%s\",\"isa\":\"%s\","
              "\"parallelism\":%zu,\"pool_threads\":%zu,"
              "\"avg\":%.4f,\"last\":%.4f,\"tasks\":[",
              result.method_name.c_str(), result.dataset_name.c_str(),
              tensor::kern::active_name(), parallelism,
              util::global_thread_pool().size(), result.average_accuracy(),
              result.last_accuracy());
  for (std::size_t t = 0; t < result.tasks.size(); ++t) {
    const auto& task = result.tasks[t];
    std::printf("%s{\"domain\":\"%s\",\"cumulative\":%.4f,\"per_domain\":[",
                t == 0 ? "" : ",", task.domain_name.c_str(),
                task.cumulative_accuracy);
    for (std::size_t d = 0; d < task.per_domain_accuracy.size(); ++d) {
      std::printf("%s%.4f", d == 0 ? "" : ",", task.per_domain_accuracy[d]);
    }
    std::printf("]}");
  }
  // Compression ratios: raw-equivalent over wire bytes (1 when the run is
  // uncompressed, so the fields are always present and always comparable).
  const double down_ratio =
      result.network.bytes_down > 0
          ? static_cast<double>(result.network.bytes_down_raw_equiv) /
                static_cast<double>(result.network.bytes_down)
          : 1.0;
  const double up_ratio =
      result.network.bytes_up > 0
          ? static_cast<double>(result.network.bytes_up_raw_equiv) /
                static_cast<double>(result.network.bytes_up)
          : 1.0;
  std::printf("],\"participants\":%llu,"
              "\"bytes_down\":%llu,\"bytes_up\":%llu,\"messages\":%llu,"
              "\"dropped\":%llu,\"quarantined\":%llu,\"retries\":%llu,"
              "\"timed_out\":%llu,\"bytes_retransmitted\":%llu,"
              "\"compression\":\"%s\","
              "\"bytes_down_raw_equiv\":%llu,\"bytes_up_raw_equiv\":%llu,"
              "\"compression_ratio_down\":%.4f,\"compression_ratio_up\":%.4f,"
              "\"wall_seconds\":%.3f,\"train_seconds\":%.3f,"
              "\"aggregate_seconds\":%.3f,\"eval_seconds\":%.3f",
              static_cast<unsigned long long>(total_participants(result)),
              static_cast<unsigned long long>(result.network.bytes_down),
              static_cast<unsigned long long>(result.network.bytes_up),
              static_cast<unsigned long long>(result.network.messages),
              static_cast<unsigned long long>(result.network.dropped_updates),
              static_cast<unsigned long long>(result.network.quarantined),
              static_cast<unsigned long long>(result.network.retries),
              static_cast<unsigned long long>(result.network.timed_out),
              static_cast<unsigned long long>(
                  result.network.bytes_retransmitted),
              result.compression.c_str(),
              static_cast<unsigned long long>(
                  result.network.bytes_down_raw_equiv),
              static_cast<unsigned long long>(
                  result.network.bytes_up_raw_equiv),
              down_ratio, up_ratio, result.wall_seconds,
              result.train_seconds(), result.aggregate_seconds(),
              result.eval_seconds());

  // Bucket-estimated quantiles for the phase histograms the runner feeds
  // (satellite: Registry::Snapshot now carries the buckets).
  const auto snap = obs::Registry::instance().snapshot();
  std::printf(",\"quantiles\":{");
  bool first = true;
  for (const char* name : {"fed.round_train_seconds", "fed.aggregate_seconds",
                           "fed.eval_seconds", "pool.task_wait_seconds"}) {
    const auto it = snap.histograms.find(name);
    if (it == snap.histograms.end() || it->second.stats.count == 0) continue;
    std::printf("%s\"%s\":{\"p50\":%.6f,\"p95\":%.6f,\"p99\":%.6f}",
                first ? "" : ",", name, it->second.quantile(0.50),
                it->second.quantile(0.95), it->second.quantile(0.99));
    first = false;
  }
  std::printf("}");

  // Health block: detector firings with round coordinates. Present for every
  // run (monitored=false for plain ones) so consumers never branch on key
  // existence.
  std::string health = ",\"health\":{\"monitored\":";
  health += result.monitor.enabled ? "true" : "false";
  health += ",\"healthy\":";
  health += result.monitor.healthy_at_end ? "true" : "false";
  health += ",\"alerts\":" + std::to_string(result.health.size());
  health += ",\"events\":[";
  for (std::size_t i = 0; i < result.health.size(); ++i) {
    const auto& e = result.health[i];
    if (i != 0) health += ',';
    health += "{\"detector\":\"";
    obs::json_escape(health, e.detector);
    health += "\",\"task\":" + std::to_string(e.task);
    health += ",\"round\":" + std::to_string(e.round);
    health += ",\"global_round\":" + std::to_string(e.global_round);
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\"value\":%.6g,\"threshold\":%.6g",
                  e.value, e.threshold);
    health += buf;
    health += ",\"detail\":\"";
    obs::json_escape(health, e.detail);
    health += "\"}";
  }
  health += "]}";
  std::printf("%s}\n", health.c_str());
}

/// The /metrics extras a monitored run exposes beyond the process registry:
/// run-scoped series fed from the progress board at round cadence, whose
/// final values reconcile exactly with RunResult::network (the CI
/// monitored-smoke asserts this byte-for-byte).
std::vector<obs::expo::ExtraMetric> run_extras(const fed::ProgressSnapshot& p) {
  std::vector<obs::expo::ExtraMetric> extras;
  const auto counter = [&](const char* name, const char* help,
                           std::uint64_t v) {
    extras.push_back({std::string("reffil_run_") + name, help, "counter", {},
                      static_cast<double>(v)});
  };
  const auto gauge = [&](const char* name, const char* help, double v) {
    extras.push_back(
        {std::string("reffil_run_") + name, help, "gauge", {}, v});
  };
  extras.push_back({"reffil_run_info",
                    "run identity",
                    "gauge",
                    {{"method", p.method}, {"dataset", p.dataset}},
                    1.0});
  counter("rounds", "committed rounds this run", p.rounds_done);
  counter("participants", "cumulative selected participants", p.participants);
  counter("bytes_down", "server->client wire bytes", p.bytes_down);
  counter("bytes_up", "client->server wire bytes", p.bytes_up);
  counter("bytes_down_raw_equiv", "uncompressed-equivalent downlink bytes",
          p.bytes_down_raw_equiv);
  counter("bytes_up_raw_equiv", "uncompressed-equivalent uplink bytes",
          p.bytes_up_raw_equiv);
  counter("messages", "logical messages", p.messages);
  counter("dropped", "client dropouts", p.dropped);
  counter("quarantined", "quarantined updates", p.quarantined);
  counter("retries", "retransmissions", p.retries);
  counter("timed_out", "deadline-cut deliveries", p.timed_out);
  counter("alerts", "health detector firings", p.alerts.size());
  gauge("task", "current task index", static_cast<double>(p.task));
  gauge("round_p95_seconds", "p95 round train+aggregate seconds",
        p.round_p95_s);
  gauge("healthy", "1 while /healthz is ok", p.healthy ? 1.0 : 0.0);
  gauge("done", "1 once the run finished", p.done ? 1.0 : 0.0);
  return extras;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset_name, method_name, order = "orig", scale = "scaled";
  std::string profile_path, fault_spec, des_spec, compress_spec, monitor_spec;
  std::uint64_t seed = 7;
  double dropout = 0.0;
  bool json = false;
  bool monitor_armed = false;
  // The port text comes from REFFIL_METRICS_PORT or --serve-metrics (the
  // flag wins) and is parsed once, after the flags.
  const char* metrics_port_text = std::getenv("REFFIL_METRICS_PORT");
  if (metrics_port_text != nullptr) monitor_armed = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--list") {
      std::printf("datasets:\n");
      for (const auto& spec : data::all_dataset_specs()) {
        std::printf("  %-16s %zu classes, %zu domains\n", spec.name.c_str(),
                    spec.num_classes, spec.domains.size());
      }
      std::printf("methods:\n");
      for (const auto kind : harness::all_method_kinds()) {
        std::printf("  %s\n", harness::method_display_name(kind).c_str());
      }
      return 0;
    } else if (arg == "--dataset") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      dataset_name = v;
    } else if (arg == "--method") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      method_name = v;
    } else if (arg == "--order") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      order = v;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      const auto parsed = parse_seed(v);
      if (!parsed) {
        std::fprintf(stderr, "bad --seed '%s': expected a decimal u64\n", v);
        return 2;
      }
      seed = *parsed;
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      scale = v;
    } else if (arg == "--dropout") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      const auto parsed = parse_probability(v);
      if (!parsed) {
        std::fprintf(stderr,
                     "bad --dropout '%s': expected a number in [0, 1]\n", v);
        return 2;
      }
      dropout = *parsed;
    } else if (arg == "--fault-profile") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      fault_spec = v;
    } else if (arg == "--des") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      des_spec = v;
    } else if (arg == "--compress") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      compress_spec = v;
    } else if (arg == "--profile") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      profile_path = v;
    } else if (arg == "--serve-metrics") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      monitor_armed = true;
      metrics_port_text = v;
    } else if (arg == "--monitor") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      monitor_armed = true;
      monitor_spec = v;
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (dataset_name.empty() || method_name.empty()) return usage(argv[0]);

  data::DatasetSpec spec;
  bool found = false;
  for (const auto& candidate : data::all_dataset_specs()) {
    if (candidate.name != dataset_name) continue;
    if (found) {
      // The lookup used to keep scanning, so a duplicated registry name
      // silently resolved to whichever spec happened to be listed last.
      std::fprintf(stderr,
                   "dataset '%s' appears more than once in the spec registry; "
                   "refusing to guess which one you meant\n",
                   dataset_name.c_str());
      return 2;
    }
    spec = candidate;
    found = true;
  }
  if (!found) {
    std::fprintf(stderr, "unknown dataset '%s' (see --list)\n",
                 dataset_name.c_str());
    return 2;
  }
  if (order == "new") {
    spec = data::with_domain_order(spec, data::new_domain_order(spec.name));
  } else if (order != "orig") {
    std::fprintf(stderr, "unknown order '%s'\n", order.c_str());
    return 2;
  }
  const auto parsed_scale = harness::parse_scale(scale);
  if (!parsed_scale) {
    std::fprintf(stderr, "unknown scale '%s' (smoke | scaled | full)\n",
                 scale.c_str());
    return 2;
  }
  std::optional<std::uint16_t> metrics_port;
  if (metrics_port_text != nullptr) {
    metrics_port = parse_port(metrics_port_text);
    if (!metrics_port) {
      std::fprintf(stderr,
                   "bad --serve-metrics '%s': expected a decimal port in "
                   "0..65535\n",
                   metrics_port_text);
      return 2;
    }
  }
  const auto kind = parse_method(method_name);
  if (!kind) {
    std::fprintf(stderr, "unknown method '%s' (see --list)\n",
                 method_name.c_str());
    return 2;
  }

  harness::ExperimentConfig config;
  config.seed = seed;
  config.scale = *parsed_scale;

  if (!profile_path.empty()) {
    obs::prof::set_thread_name("main");
    obs::prof::start(profile_path);
  }

  fed::FaultProfile faults;
  if (!fault_spec.empty()) {
    try {
      faults = fed::FaultProfile::parse(fault_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --fault-profile: %s\n", e.what());
      return 2;
    }
  }
  fed::DesConfig des;
  if (!des_spec.empty()) {
    try {
      des = fed::DesConfig::parse(des_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --des: %s\n", e.what());
      return 2;
    }
  }
  fed::CompressionConfig compress;
  if (!compress_spec.empty()) {
    try {
      compress = fed::CompressionConfig::parse(compress_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --compress: %s\n", e.what());
      return 2;
    }
  }

  std::shared_ptr<fed::RunMonitor> monitor;
  if (monitor_armed) {
    fed::MonitorConfig monitor_config;
    try {
      monitor_config = fed::MonitorConfig::parse(monitor_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --monitor: %s\n", e.what());
      return 2;
    }
    monitor = std::make_shared<fed::RunMonitor>(monitor_config);
  }
  std::unique_ptr<obs::expo::MetricsServer> server;
  if (metrics_port) {
    obs::expo::MetricsServer::Options options;
    options.port = *metrics_port;
    server = std::make_unique<obs::expo::MetricsServer>(
        options,
        [monitor] {
          return obs::expo::render_openmetrics(
              obs::Registry::instance().snapshot(),
              run_extras(monitor->board().get()));
        },
        [monitor] { return monitor->board().get().render_json(); },
        [monitor] {
          return std::make_pair(monitor->health().healthy(),
                                monitor->health().reason());
        });
    try {
      server->start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "reffil_run: %s\n", e.what());
      return 1;
    }
    std::fprintf(stderr,
                 "serving /metrics /healthz /progress on 127.0.0.1:%u\n",
                 server->port());
  }

  const auto scaled_spec = harness::apply_scale(spec, config.scale);
  auto method = harness::make_method(*kind, scaled_spec, config);
  fed::RunConfig run_config{.spec = scaled_spec,
                            .parallelism = config.parallelism,
                            .seed = config.seed,
                            .dropout_probability = dropout,
                            .faults = faults,
                            .des = des,
                            .compress = compress,
                            .monitor = monitor};
  fed::FederatedRunner runner(run_config);
  fed::RunResult result;
  try {
    result = runner.run(*method);
  } catch (const std::exception& e) {
    // Partial traces are still evidence — flush every sink before dying.
    obs::flush_all();
    std::fprintf(stderr, "reffil_run: %s\n", e.what());
    return 1;
  }

  if (!profile_path.empty()) {
    obs::prof::stop_and_write();
    std::fprintf(stderr, "profile written to %s (load in chrome://tracing)\n",
                 profile_path.c_str());
  }

  if (json) {
    print_json(result, runner.parallelism());
  } else {
    std::printf("%s on %s (seed %llu, %s order, scale %s, isa %s)\n",
                result.method_name.c_str(), result.dataset_name.c_str(),
                static_cast<unsigned long long>(seed), order.c_str(),
                scale.c_str(), tensor::kern::active_name());
    for (const auto& task : result.tasks) {
      std::printf("  after %-14s cumulative %5.1f%%\n", task.domain_name.c_str(),
                  task.cumulative_accuracy);
    }
    std::string dropped_note;
    if (result.network.dropped_updates != 0) {
      dropped_note = "  (" + std::to_string(result.network.dropped_updates) +
                     " dropped updates)";
    }
    if (result.network.quarantined != 0 || result.network.retries != 0 ||
        result.network.timed_out != 0) {
      dropped_note += "  [faults: " +
                      std::to_string(result.network.quarantined) +
                      " quarantined, " +
                      std::to_string(result.network.retries) + " retries, " +
                      std::to_string(result.network.timed_out) + " timed out]";
    }
    if (!des_spec.empty()) {
      std::printf("  %llu participants sampled across %zu rounds\n",
                  static_cast<unsigned long long>(total_participants(result)),
                  result.rounds.size());
    }
    std::string compress_note;
    if (result.compression != "none") {
      const double down_ratio =
          result.network.bytes_down > 0
              ? static_cast<double>(result.network.bytes_down_raw_equiv) /
                    static_cast<double>(result.network.bytes_down)
              : 1.0;
      const double up_ratio =
          result.network.bytes_up > 0
              ? static_cast<double>(result.network.bytes_up_raw_equiv) /
                    static_cast<double>(result.network.bytes_up)
              : 1.0;
      char buf[128];
      std::snprintf(buf, sizeof(buf), "  [%s: %.1fx down, %.1fx up]",
                    result.compression.c_str(), down_ratio, up_ratio);
      compress_note = buf;
    }
    std::printf("Avg %.2f%%  Last %.2f%%  traffic %.1f MiB down / %.1f MiB up"
                "%s%s  wall %.1fs (train %.1fs, aggregate %.1fs, eval %.1fs)\n",
                result.average_accuracy(), result.last_accuracy(),
                result.network.bytes_down / 1048576.0,
                result.network.bytes_up / 1048576.0, compress_note.c_str(),
                dropped_note.c_str(), result.wall_seconds,
                result.train_seconds(), result.aggregate_seconds(),
                result.eval_seconds());
  }

  if (server != nullptr) {
    // Keep serving the final state so a scraper can reconcile the live
    // counters against the --json output above; /quitquitquit ends the
    // linger early, and no env var means no linger at all.
    double linger_s = 0.0;
    if (const char* env = std::getenv("REFFIL_METRICS_LINGER")) {
      linger_s = std::strtod(env, nullptr);
    }
    if (linger_s > 0.0) {
      std::fflush(stdout);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(linger_s));
      while (std::chrono::steady_clock::now() < deadline &&
             !server->shutdown_requested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    server->stop();
  }
  return 0;
}
