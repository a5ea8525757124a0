#include "workload.hpp"

#include <cmath>
#include <stdexcept>

#include "reffil/util/thread_pool.hpp"

namespace fdilbench {

namespace fed = reffil::fed;
namespace harness = reffil::harness;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"digits-finetune",
       "Finetune, dense loop: backbone SGD dominates; prompts, clustering and "
       "compression are bypassed",
       harness::MethodKind::kFinetune, "", "", ""},
      {"digits-reffil",
       "RefFiL on the same data and schedule: isolates CDAP prompts, GPL/DPCL "
       "losses and FINCH clustering",
       harness::MethodKind::kRefFiL, "", "", ""},
      {"cohort-q8",
       "Finetune through the DES loop with q8+top-k and transport faults: "
       "isolates streaming aggregation, encoding and framing",
       harness::MethodKind::kFinetune, "registered=100000,sample=50",
       "q8,topk=0.1", "corrupt=0.02,dup=0.02"},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double Cell::setup_s() const {
  return std::chrono::duration<double>(run_start - setup_start).count();
}

double Cell::run_s() const {
  return std::chrono::duration<double>(run_end - run_start).count();
}

std::uint64_t Cell::eval_images() const {
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < spec.domains.size(); ++t) {
    for (std::size_t d = 0; d <= t; ++d) total += spec.domains[d].test_samples;
  }
  return total;
}

std::uint64_t Cell::participants() const {
  std::uint64_t total = 0;
  for (const auto& r : result.rounds) total += r.selected;
  return total;
}

std::uint64_t Cell::failed_updates() const {
  const auto& n = result.network;
  return n.dropped_updates + n.quarantined + n.timed_out;
}

namespace {

reffil::data::DatasetSpec digits_five() {
  for (const auto& spec : reffil::data::all_dataset_specs()) {
    if (spec.name == "Digits-Five") return spec;
  }
  throw std::runtime_error("fdilbench: Digits-Five spec not registered");
}

/// Everything set-up builds; members are declared in destruction-safe order
/// (the runner holds the source, the probes point at the recorder).
struct Built {
  reffil::data::DatasetSpec spec;
  std::size_t parallelism = 0;
  std::unique_ptr<Recorder> recorder;
  std::unique_ptr<fed::Method> method;
  std::unique_ptr<ProbedMethod> probed;
  std::unique_ptr<fed::FederatedRunner> runner;

  fed::Method& entry() { return probed ? *probed : *method; }
};

/// Mirrors harness::run_experiment, with the probes slotted into the two
/// seams when the cell is wrapped.
Built build(const Workload& workload, const CellOptions& options) {
  harness::ExperimentConfig config;
  config.seed = options.seed;
  config.scale = options.scale;
  config.des = fed::DesConfig::parse(workload.des);
  config.compress = fed::CompressionConfig::parse(workload.compress);
  config.faults = fed::FaultProfile::parse(workload.faults);

  Built b;
  b.spec = harness::apply_scale(digits_five(), config.scale);
  b.parallelism = config.parallelism == 0
                      ? reffil::util::global_thread_pool().size()
                      : config.parallelism;
  if (options.wrapped) {
    b.recorder = std::make_unique<Recorder>(options.traced, b.parallelism);
  }
  const auto method_start = Clock::now();
  b.method = harness::make_method(workload.method, b.spec, config);
  const auto method_end = Clock::now();

  fed::RunConfig run_config;
  run_config.spec = b.spec;
  run_config.parallelism = config.parallelism;
  run_config.seed = config.seed;
  run_config.faults = config.faults;
  run_config.des = config.des;
  run_config.compress = config.compress;
  if (b.recorder) {
    b.recorder->add({.name = "harness.make_method",
                     .start = method_start,
                     .end = method_end});
    run_config.source = std::make_shared<ProbedSource>(b.spec, *b.recorder);
    b.probed = std::make_unique<ProbedMethod>(*b.method, *b.recorder);
  }
  b.runner = std::make_unique<fed::FederatedRunner>(std::move(run_config));
  return b;
}

}  // namespace

double setup_only(const Workload& workload, const CellOptions& options) {
  const auto start = Clock::now();
  Built b = build(workload, options);
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Cell run_cell(const Workload& workload, const CellOptions& options) {
  reffil::obs::Registry::instance().reset();
  Cell cell;
  cell.options = options;
  cell.setup_start = Clock::now();
  Built b = build(workload, options);
  cell.run_start = Clock::now();
  cell.result = b.runner->run(b.entry());
  cell.run_end = Clock::now();
  cell.registry = reffil::obs::Registry::instance().snapshot();

  cell.spec = b.spec;
  cell.parallelism = b.parallelism;
  if (b.recorder) {
    b.recorder->add({.name = "harness.setup",
                     .start = cell.setup_start,
                     .end = cell.run_start});
    b.recorder->add(
        {.name = "fed.run", .start = cell.run_start, .end = cell.run_end});
  }
  // The runner and probes die here; the recorder they wrote to moves out.
  cell.recorder = std::move(b.recorder);
  return cell;
}

std::vector<std::string> check_cell(const Workload& workload,
                                    const Cell& cell) {
  std::vector<std::string> failed;
  const auto fail = [&](const std::string& what) { failed.push_back(what); };
  const fed::RunResult& r = cell.result;
  const auto& spec = cell.spec;

  if (r.tasks.size() != spec.domains.size()) fail("one evaluation per task");
  if (r.rounds.size() != spec.domains.size() * spec.rounds_per_task) {
    fail("rounds == tasks x rounds_per_task");
  }
  for (const auto& t : r.tasks) {
    if (!std::isfinite(t.cumulative_accuracy) || t.cumulative_accuracy < 0.0 ||
        t.cumulative_accuracy > 100.0) {
      fail("accuracy within [0, 100]");
      break;
    }
  }
  // Smoke scale trains too little to learn; every other scale must reach
  // three times chance on average.
  if (!r.tasks.empty() && cell.options.scale != harness::Scale::kSmoke) {
    const double chance = 100.0 / static_cast<double>(spec.num_classes);
    if (r.average_accuracy() < 3.0 * chance) fail("avg_acc >= 3x chance");
  }

  fed::NetworkStats sum;
  for (const auto& round : r.rounds) {
    sum.bytes_down += round.bytes_down;
    sum.bytes_up += round.bytes_up;
    sum.dropped_updates += round.dropped;
    sum.quarantined += round.quarantined;
    sum.retries += round.retries;
    sum.timed_out += round.timed_out;
    sum.bytes_retransmitted += round.bytes_retransmitted;
  }
  const auto& n = r.network;
  if (sum.bytes_down != n.bytes_down || sum.bytes_up != n.bytes_up ||
      sum.dropped_updates != n.dropped_updates ||
      sum.quarantined != n.quarantined || sum.retries != n.retries ||
      sum.timed_out != n.timed_out ||
      sum.bytes_retransmitted != n.bytes_retransmitted) {
    fail("per-round sums == NetworkStats totals");
  }

  if (cell.recorder) {
    const Counters& c = cell.recorder->counters();
    if (c.predict_calls.load() != cell.eval_images()) {
      fail("predict calls == test images");
    }
    if (workload.faults.empty()) {
      // Without a transport every wire byte is a payload byte the probes saw.
      std::uint64_t down = 0;
      if (c.broadcast_sizes.size() == r.rounds.size()) {
        for (std::size_t i = 0; i < r.rounds.size(); ++i) {
          down += c.broadcast_sizes[i] * r.rounds[i].selected;
        }
      }
      if (c.broadcast_sizes.size() != r.rounds.size() || down != n.bytes_down) {
        fail("probed broadcast bytes == bytes_down");
      }
      if (c.update_bytes.load() != n.bytes_up) {
        fail("probed update bytes == bytes_up");
      }
      if (c.train_client_calls.load() != cell.participants()) {
        fail("train_client calls == participants");
      }
    }
  }
  return failed;
}

}  // namespace fdilbench
