// fdilbench — end-to-end benchmark of whole FDIL cells.
//
//   fdilbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out PATH]
//
// Runs cells of one workload back to back for about --seconds seconds and
// prints one JSON line per cell, a host record, and as its last line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// Cell k runs at seed --seed when k == 0 and at a seed derived from it
// otherwise, so a run's medians span several partitions and client
// schedules. --trace 0 reports the end-to-end metrics from untraced cells;
// --trace 1 alternates untraced and traced cells on the same seed, reports
// the per-layer metrics from the traced ones, and writes their spans to
// --trace-out as JSON lines.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "reffil/tensor/kernels_dispatch.hpp"
#include "reffil/util/thread_pool.hpp"
#include "workload.hpp"

namespace {

using namespace fdilbench;

// Each changes what a run measures or where its inputs come from.
constexpr const char* kRefusedEnv[] = {
    "REFFIL_TRACE",       "REFFIL_PROFILE", "REFFIL_METRICS_PORT",
    "REFFIL_BENCH_SCALE", "REFFIL_ISA",     "REFFIL_CACHE_DIR"};

// Set-ups timed before the first cell, on top of each cell's own, so
// setup_s is a median of several samples even when few cells fit.
constexpr int kExtraSetups = 4;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out PATH]\n",
               argv0);
  return 2;
}

/// Whole-string numeric parse; false on anything else.
template <typename T>
bool parse(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, out);
  return res.ec == std::errc() && res.ptr == end;
}

std::uint64_t cell_seed(std::uint64_t base, std::uint64_t k) {
  if (k == 0) return base;
  std::uint64_t z = base + k * 0x9E3779B97F4A7C15ULL;  // splitmix64
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) % 1000000;
}

/// Linear-interpolated quantile; `v` must be non-empty.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::uint64_t counter(const Cell& cell, const char* name) {
  const auto it = cell.registry.counters.find(name);
  return it == cell.registry.counters.end() ? 0 : it->second;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Metric {
  std::string unit;
  double value = 0.0;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

Metrics end_to_end(const std::vector<Cell>& cells, double setup_median) {
  std::vector<double> run_s, round_p50, round_p95, train_rate, eval_rate, wire,
      avg, last;
  std::uint64_t participants = 0, failed = 0;
  for (const Cell& c : cells) {
    const auto& r = c.result;
    run_s.push_back(c.run_s());
    std::vector<double> rounds;
    for (const auto& round : r.rounds) {
      rounds.push_back(round.train_seconds + round.aggregate_seconds);
    }
    round_p50.push_back(quantile(rounds, 0.50));
    round_p95.push_back(quantile(rounds, 0.95));
    train_rate.push_back(ratio(
        static_cast<double>(counter(c, "cl.samples_trained")),
        r.train_seconds()));
    eval_rate.push_back(
        ratio(static_cast<double>(c.eval_images()), r.eval_seconds()));
    wire.push_back(
        static_cast<double>(r.network.bytes_up + r.network.bytes_down) / 1e6);
    avg.push_back(r.average_accuracy());
    last.push_back(r.last_accuracy());
    participants += c.participants();
    failed += c.failed_updates();
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"setup_s", {"s", setup_median}},
      {"run_s", {"s", median(run_s)}},
      // Round quantiles are taken within each cell's 20 rounds, then the
      // median over cells, so one cell hit by host interference cannot
      // supply the whole tail.
      {"round_p50_s", {"s", median(round_p50)}},
      {"round_p95_s", {"s", median(round_p95)}},
      {"train_samples_per_s", {"1/s", median(train_rate)}},
      {"eval_images_per_s", {"1/s", median(eval_rate)}},
      {"peak_rss_mb", {"MB", static_cast<double>(usage.ru_maxrss) / 1024.0}},
      {"wire_mb", {"MB", median(wire)}},
      // Accuracy is exact per seed, so the mean over the cells' seeds is
      // the steadier estimate; timings keep medians against outliers.
      {"avg_acc", {"%", mean(avg)}},
      {"last_acc", {"%", mean(last)}},
      // 1 - (dropped + quarantined + timed_out) / participants: the share
      // of updates that reached aggregation.
      {"update_ok_share",
       {"share", 1.0 - ratio(static_cast<double>(failed),
                             static_cast<double>(participants))}},
  };
}

/// Per-cell figures derived from a traced cell's spans.
struct TracedFigures {
  std::map<std::string, double> total_s;  ///< summed span time per name
  std::vector<double> train_client_s, predict_s;  ///< per-call durations
  double covered_s = 0.0;  ///< union of the run's child spans
  double run_s = 0.0;
};

bool is_run_child(const Span& s) {
  return std::strcmp(s.name, "fed.run") != 0 &&
         std::strcmp(s.name, "harness.setup") != 0 &&
         std::strcmp(s.name, "harness.make_method") != 0;
}

TracedFigures traced_figures(const Cell& cell) {
  TracedFigures f;
  f.run_s = cell.run_s();
  std::vector<std::pair<Clock::time_point, Clock::time_point>> children;
  for (const Span& s : cell.recorder->spans()) {
    f.total_s[s.name] += s.seconds();
    if (std::strcmp(s.name, "cl.train_client") == 0) {
      f.train_client_s.push_back(s.seconds());
    } else if (std::strcmp(s.name, "cl.predict") == 0) {
      f.predict_s.push_back(s.seconds());
    }
    if (is_run_child(s)) {
      children.emplace_back(std::max(s.start, cell.run_start),
                            std::min(s.end, cell.run_end));
    }
  }
  std::sort(children.begin(), children.end());
  Clock::time_point reach = cell.run_start;
  for (const auto& [start, end] : children) {
    const Clock::time_point from = std::max(start, reach);
    if (end > from) {
      f.covered_s += seconds_between(from, end);
      reach = end;
    }
  }
  return f;
}

struct LayerValue {
  const char* name;
  const char* unit;
  double value;
};

Metrics per_layer(const std::vector<Cell>& cells) {
  std::vector<double> overhead;
  std::map<std::string, std::vector<double>> per_cell;
  std::map<std::string, std::string> units;
  std::uint64_t participants = 0, failed = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    participants += c.participants();
    failed += c.failed_updates();
    if (!c.options.traced) continue;
    // Cells run in (untraced, traced) pairs on one seed.
    if (i > 0 && !cells[i - 1].options.traced &&
        cells[i - 1].options.seed == c.options.seed) {
      overhead.push_back(c.run_s() / cells[i - 1].run_s() - 1.0);
    }
    const TracedFigures f = traced_figures(c);
    const auto total = [&](const char* name) {
      const auto it = f.total_s.find(name);
      return it == f.total_s.end() ? 0.0 : it->second;
    };
    const Counters& k = c.recorder->counters();
    const auto hits = static_cast<double>(counter(c, "tensor.pool.hit"));
    const auto misses = static_cast<double>(counter(c, "tensor.pool.miss"));
    const auto& wait = c.registry.histograms.find("pool.task_wait_seconds");
    std::uint64_t broadcast_bytes = 0;
    for (const auto b : k.broadcast_sizes) broadcast_bytes += b;
    const std::vector<LayerValue> values = {
        {"fed.slot_idle_share", "share",
         1.0 - ratio(total("cl.train_client"),
                     static_cast<double>(c.parallelism) *
                         c.result.train_seconds())},
        {"fed.self_s", "s", f.run_s - f.covered_s},
        {"cl.train_client_s", "s", total("cl.train_client")},
        {"cl.train_client_p50_s", "s", quantile(f.train_client_s, 0.50)},
        {"cl.train_client_p99_s", "s", quantile(f.train_client_s, 0.99)},
        {"cl.train_client_calls", "count",
         static_cast<double>(k.train_client_calls.load())},
        {"cl.samples_trained", "count",
         static_cast<double>(counter(c, "cl.samples_trained"))},
        {"cl.predict_s", "s", total("cl.predict")},
        {"cl.predict_p50_s", "s", quantile(f.predict_s, 0.50)},
        {"cl.predict_calls", "count",
         static_cast<double>(k.predict_calls.load())},
        {"cl.prepare_eval_s", "s", total("cl.prepare_eval")},
        {"cl.broadcast_s", "s", total("cl.broadcast")},
        {"cl.broadcast_bytes", "bytes", static_cast<double>(broadcast_bytes)},
        {"cl.update_bytes", "bytes",
         static_cast<double>(k.update_bytes.load())},
        {"cl.aggregate_s", "s", total("cl.aggregate")},
        {"cl.aggregate_calls", "count",
         static_cast<double>(k.aggregate_calls.load() + k.sink_adds.load() +
                             k.sink_finishes.load())},
        {"cl.task_start_s", "s", total("cl.task_start")},
        {"data.train_split_s", "s", total("data.train_split")},
        {"data.test_split_s", "s", total("data.test_split")},
        {"harness.make_method_s", "s", total("harness.make_method")},
        {"util.pool_wait_p95_s", "s",
         wait == c.registry.histograms.end() ? 0.0
                                             : wait->second.quantile(0.95)},
        {"tensor.pool_hit_ratio", "share", ratio(hits, hits + misses)},
        {"tensor.pool_bytes", "bytes",
         static_cast<double>(counter(c, "tensor.pool.bytes"))},
        {"autograd.replay_share", "share",
         ratio(static_cast<double>(counter(c, "ag.graph.replay")),
               static_cast<double>(k.train_steps.load()))},
        {"trace.span_coverage", "share", ratio(f.covered_s, f.run_s)},
    };
    for (const auto& v : values) {
      units[v.name] = v.unit;
      per_cell[v.name].push_back(v.value);
    }
  }

  Metrics out;
  for (const auto& [name, values] : per_cell) {
    out.push_back({name, {units[name], median(values)}});
  }
  out.push_back({"fed.update_fail_share",
                 {"share", ratio(static_cast<double>(failed),
                                 static_cast<double>(participants))}});
  out.push_back({"trace.overhead_share",
                 {"share", overhead.empty() ? 0.0 : median(overhead)}});
  return out;
}

/// Host facts that change what the numbers mean, as a JSON object.
std::string host_record(const std::vector<Cell>& cells) {
  std::uint64_t slots_used = 0;
  std::size_t parallelism = 0;
  for (const Cell& c : cells) {
    parallelism = c.parallelism;
    if (c.recorder) {
      slots_used = std::max<std::uint64_t>(
          slots_used, c.recorder->counters().max_slot_plus_one.load());
    }
  }
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"pool_threads\":" +
         std::to_string(reffil::util::global_thread_pool().size()) +
         ",\"isa\":\"" + reffil::tensor::kern::active_name() +
         "\",\"build_type\":\"" FDILBENCH_BUILD_TYPE
         "\",\"compiler\":\"" __VERSION__ "\",\"parallelism\":" +
         std::to_string(parallelism) +
         ",\"slots_used\":" + std::to_string(slots_used) + "}";
}

void write_trace(const std::string& path, const std::string& workload,
                 const std::string& host, const std::vector<Cell>& cells,
                 Clock::time_point origin) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("fdilbench: cannot write trace to " + path);
  }
  out << "{\"type\":\"host\",\"workload\":\"" << workload
      << "\",\"host\":" << host << "}\n";
  std::size_t next_id = 0;
  for (const Cell& c : cells) {
    if (!c.options.traced) continue;
    std::vector<Span> spans = c.recorder->spans();
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.start < b.start; });
    // harness.setup and fed.run are the roots; make_method sits under
    // set-up and every probe span under the run.
    std::size_t setup_id = 0, run_id = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (std::strcmp(spans[i].name, "harness.setup") == 0) {
        setup_id = next_id + i;
      } else if (std::strcmp(spans[i].name, "fed.run") == 0) {
        run_id = next_id + i;
      }
    }
    for (const Span& s : spans) {
      std::string parent = "null";
      if (std::strcmp(s.name, "harness.make_method") == 0) {
        parent = std::to_string(setup_id);
      } else if (is_run_child(s)) {
        parent = std::to_string(run_id);
      }
      out << "{\"type\":\"span\",\"id\":" << next_id++ << ",\"name\":\""
          << s.name << "\",\"start_s\":"
          << number(seconds_between(origin, s.start))
          << ",\"end_s\":" << number(seconds_between(origin, s.end))
          << ",\"parent\":" << parent << ",\"workload\":\"" << workload
          << "\",\"run\":" << c.options.run << ",\"seed\":" << c.options.seed
          << ",\"task\":" << s.task << ",\"round\":" << s.round
          << ",\"slot\":" << s.slot << ",\"client\":" << s.client << "}\n";
    }
  }
  out.flush();
  if (!out) throw std::runtime_error("fdilbench: short write to " + path);
}

std::string cell_line(const Cell& c, const std::vector<std::string>& failed) {
  std::string line = "{\"cell\":" + std::to_string(c.options.run) +
                     ",\"seed\":" + std::to_string(c.options.seed) +
                     ",\"traced\":" + (c.options.traced ? "true" : "false") +
                     ",\"avg_acc\":" + number(c.result.average_accuracy()) +
                     ",\"last_acc\":" + number(c.result.last_accuracy()) +
                     ",\"setup_s\":" + number(c.setup_s()) +
                     ",\"run_s\":" + number(c.run_s()) +
                     ",\"bytes_down\":" +
                     std::to_string(c.result.network.bytes_down) +
                     ",\"bytes_up\":" +
                     std::to_string(c.result.network.bytes_up) +
                     ",\"retries\":" +
                     std::to_string(c.result.network.retries) +
                     ",\"failed_checks\":[";
  for (std::size_t i = 0; i < failed.size(); ++i) {
    line += (i == 0 ? "\"" : ",\"") + failed[i] + "\"";
  }
  return line + "]}";
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  std::string workload_name, trace_out;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      if (!parse(value, seed)) return usage(argv[0]);
    } else if (arg == "--seconds") {
      if (!parse(value, seconds) || !(seconds > 0.0)) return usage(argv[0]);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage(argv[0]);
      traced = value == "1";
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* workload = find_workload(workload_name);
  if (workload == nullptr) {
    std::fprintf(stderr, "fdilbench: unknown workload '%s'\n",
                 workload_name.c_str());
    return 2;
  }
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "fdilbench: %s is set; it changes what is measured, so "
                   "the benchmark refuses to run\n",
                   name);
      return 2;
    }
  }

  try {
    // Warm-up: one smoke-scale cell pages in the code, starts the pool and
    // fills the tensor scratch caches before anything is timed.
    run_cell(*workload,
             {.seed = seed, .scale = reffil::harness::Scale::kSmoke});
    std::vector<double> setups;
    for (int i = 0; i < kExtraSetups; ++i) {
      setups.push_back(setup_only(*workload, {.seed = seed}));
    }

    std::vector<Cell> cells;
    std::vector<double> cell_wall;
    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;
    const std::size_t min_cells = traced ? 2 : 1;
    const Clock::time_point loop_start = Clock::now();
    for (std::uint32_t k = 0;; ++k) {
      // Start another cell only if a typical one still fits the budget.
      if (attempted >= min_cells &&
          seconds_between(loop_start, Clock::now()) + median(cell_wall) >
              seconds) {
        break;
      }
      const CellOptions options{
          .seed = cell_seed(seed, traced ? k / 2 : k),
          .traced = traced && k % 2 == 1,
          .run = k};
      ++attempted;
      const Clock::time_point start = Clock::now();
      try {
        Cell cell = run_cell(*workload, options);
        const std::vector<std::string> failed_checks =
            check_cell(*workload, cell);
        std::printf("%s\n", cell_line(cell, failed_checks).c_str());
        std::fflush(stdout);
        if (!failed_checks.empty()) {
          correct = false;
          ++failed;
        }
        setups.push_back(cell.setup_s());
        cells.push_back(std::move(cell));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fdilbench: cell %u (seed %llu) threw: %s\n", k,
                     static_cast<unsigned long long>(options.seed), e.what());
        ++failed;
      }
      cell_wall.push_back(seconds_between(start, Clock::now()));
    }
    if (std::none_of(cells.begin(), cells.end(), [&](const Cell& c) {
          return c.options.traced == traced;
        })) {
      std::fprintf(stderr, "fdilbench: no %s cell finished\n",
                   traced ? "traced" : "untraced");
      return 1;
    }

    const std::string host = host_record(cells);
    std::printf("{\"host\":%s}\n", host.c_str());
    if (traced && !trace_out.empty()) {
      write_trace(trace_out, workload->name, host, cells, origin);
    }
    const Metrics metrics =
        traced ? per_layer(cells) : end_to_end(cells, median(setups));
    std::string line = std::string("{\"correct\":") +
                       (correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted) +
                       ",\"failed\":" + std::to_string(failed) +
                       ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, m] = metrics[i];
      line += (i == 0 ? "\"" : ",\"") + name + "\":{\"value\":" +
              number(m.value) + ",\"unit\":\"" + m.unit + "\"}";
    }
    std::printf("%s}}\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fdilbench: %s\n", e.what());
    return 1;
  }
}
