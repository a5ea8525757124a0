// Worker-slot parity: a run's results must not depend on how many clients
// train at once. The runner hands clients to slots longest-first as slots
// free up, and methods build replicas (and LwF teachers) on a slot's first
// use, so the slot that trains a client varies with `parallelism` and with
// thread timing. Every per-domain accuracy, per-round byte count and fault
// counter must still match the one-slot run bitwise, in the dense preset
// (where fewer slots also mean more training waves per round) and in the
// discrete-event preset with compression and transport faults armed.
// The methods covered are the ones with per-slot state beyond the replica.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "reffil/cl/finetune.hpp"
#include "reffil/fed/runtime.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/util/thread_pool.hpp"

using namespace reffil;

namespace {

// Two domains, 8 clients growing by 2, 6 selected per round: enough
// participants to interleave on every slot count tested, with the
// quantity-skewed shards giving the clients unequal work.
data::DatasetSpec parity_spec() {
  data::DatasetSpec spec;
  spec.name = "SlotParity";
  spec.num_classes = 4;
  spec.seed = 31;
  data::DomainSpec d;
  d.train_samples = 64;
  d.test_samples = 20;
  d.noise = 0.1f;
  d.style_shift = 0.6f;
  d.name = "A";
  spec.domains.push_back(d);
  d.name = "B";
  d.style_shift = 1.0f;
  spec.domains.push_back(d);
  spec.initial_clients = 8;
  spec.clients_per_round = 6;
  spec.client_increment = 2;
  spec.rounds_per_task = 2;
  spec.local_epochs = 1;
  spec.learning_rate = 0.05f;
  return spec;
}

enum class Loop { kDense, kDes };

struct SlotRun {
  fed::RunResult result;
  /// The final global model (plus method extras) as the server would next
  /// broadcast it: exact bytes, so any change in aggregation order shows
  /// even where the coarse test accuracies happen not to move.
  std::vector<std::uint8_t> final_broadcast;
};

SlotRun run_with_slots(harness::MethodKind kind, Loop loop,
                       std::size_t parallelism) {
  const auto spec = parity_spec();
  harness::ExperimentConfig config;
  config.seed = 13;
  config.parallelism = parallelism;
  auto method = harness::make_method(kind, spec, config);
  fed::RunConfig run{.spec = spec, .parallelism = parallelism, .seed = 13};
  if (loop == Loop::kDes) {
    run.des = fed::DesConfig::parse("registered=1000,sample=10");
    run.compress = fed::CompressionConfig::parse("q8,topk=0.1");
    run.faults =
        fed::FaultProfile::parse("corrupt=0.1,poison=0.1,dup=0.1,retries=1");
  }
  fed::FederatedRunner runner(run);
  SlotRun out{runner.run(*method), {}};
  out.final_broadcast = method->make_broadcast();
  return out;
}

void expect_identical(const SlotRun& run_a, const SlotRun& run_b) {
  EXPECT_TRUE(run_a.final_broadcast == run_b.final_broadcast)
      << "final global models differ";
  const fed::RunResult& a = run_a.result;
  const fed::RunResult& b = run_b.result;
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    EXPECT_EQ(a.tasks[t].per_domain_accuracy, b.tasks[t].per_domain_accuracy)
        << "task " << t;
    EXPECT_EQ(a.tasks[t].cumulative_accuracy, b.tasks[t].cumulative_accuracy)
        << "task " << t;
  }
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].selected, b.rounds[r].selected) << "round " << r;
    EXPECT_EQ(a.rounds[r].bytes_down, b.rounds[r].bytes_down) << "round " << r;
    EXPECT_EQ(a.rounds[r].bytes_up, b.rounds[r].bytes_up) << "round " << r;
    EXPECT_EQ(a.rounds[r].quarantined, b.rounds[r].quarantined)
        << "round " << r;
    EXPECT_EQ(a.rounds[r].retries, b.rounds[r].retries) << "round " << r;
    EXPECT_EQ(a.rounds[r].timed_out, b.rounds[r].timed_out) << "round " << r;
    EXPECT_EQ(a.rounds[r].bytes_retransmitted, b.rounds[r].bytes_retransmitted)
        << "round " << r;
  }
  EXPECT_EQ(a.network.bytes_up_raw_equiv, b.network.bytes_up_raw_equiv);
  EXPECT_EQ(a.network.bytes_down_raw_equiv, b.network.bytes_down_raw_equiv);
}

struct ParityCase {
  harness::MethodKind kind;
  Loop loop;
};

}  // namespace

class SlotParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(SlotParity, ResultsIndependentOfSlotCount) {
  const ParityCase c = GetParam();
  const SlotRun serial = run_with_slots(c.kind, c.loop, 1);
  if (c.loop == Loop::kDes) {
    // The armed leg must actually exercise the fault counters it compares.
    const fed::NetworkStats& net = serial.result.network;
    EXPECT_GT(net.quarantined + net.retries, 0u);
  }
  // 0 resolves to the pool size; 8 exceeds the 6 participants per round, so
  // its last slots see their first use (and build their replica) in eval.
  for (const std::size_t parallelism : {2u, 4u, 0u, 8u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    expect_identical(serial, run_with_slots(c.kind, c.loop, parallelism));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PerSlotStateMethods, SlotParity,
    ::testing::Values(ParityCase{harness::MethodKind::kFinetune, Loop::kDense},
                      ParityCase{harness::MethodKind::kEwc, Loop::kDense},
                      ParityCase{harness::MethodKind::kLwf, Loop::kDense},
                      ParityCase{harness::MethodKind::kRefFiL, Loop::kDense},
                      ParityCase{harness::MethodKind::kFinetune, Loop::kDes},
                      ParityCase{harness::MethodKind::kEwc, Loop::kDes},
                      ParityCase{harness::MethodKind::kLwf, Loop::kDes},
                      ParityCase{harness::MethodKind::kRefFiL, Loop::kDes}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return harness::method_display_name(info.param.kind) +
             (info.param.loop == Loop::kDense ? "_Dense" : "_Des");
    });

TEST(SlotDefaults, DefaultMethodAndRunnerAgreeOnThePoolSize) {
  // MethodConfig{} and RunConfig{} both leave parallelism at 0, so the
  // runner never hands a default method a slot it has no replica for, on
  // any host's pool size.
  const auto spec = parity_spec();
  cl::MethodConfig config;
  config.net.num_classes = spec.num_classes;
  cl::FinetuneMethod method(config);
  fed::FederatedRunner runner({.spec = spec});
  EXPECT_EQ(runner.parallelism(), util::global_thread_pool().size());
  EXPECT_EQ(method.config().parallelism, runner.parallelism());
  const fed::RunResult result = runner.run(method);
  EXPECT_EQ(result.tasks.size(), spec.domains.size());
}

TEST(SlotDefaults, DefaultExperimentConfigCompletes) {
  const auto spec = parity_spec();
  const harness::ExperimentConfig config{.seed = 3};
  EXPECT_EQ(config.parallelism, 0u);
  const fed::RunResult result =
      harness::run_experiment(spec, harness::MethodKind::kLwf, config);
  EXPECT_EQ(result.tasks.size(), spec.domains.size());
}
