// The probes must not change a run: every workload, run once bare and once
// through the traced wrappers at smoke scale, gives identical accuracies,
// per-round traffic, participants and fault counts. The streaming-sink and
// validator checks catch a wrapper that stops forwarding one of the two
// virtuals whose absence would not change the numbers by itself.
#include <gtest/gtest.h>

#include "workload.hpp"

namespace fdilbench {
namespace {

using reffil::harness::Scale;

class WrapperFidelity : public ::testing::TestWithParam<std::string> {};

TEST_P(WrapperFidelity, ProbedRunMatchesBareRun) {
  const Workload& w = *find_workload(GetParam());
  const CellOptions smoke{.seed = 7, .scale = Scale::kSmoke};
  CellOptions bare_options = smoke;
  bare_options.wrapped = false;
  CellOptions probed_options = smoke;
  probed_options.traced = true;

  const Cell bare = run_cell(w, bare_options);
  const Cell probed = run_cell(w, probed_options);
  const auto& a = bare.result;
  const auto& b = probed.result;

  EXPECT_EQ(a.average_accuracy(), b.average_accuracy());
  EXPECT_EQ(a.last_accuracy(), b.last_accuracy());
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    EXPECT_EQ(a.tasks[t].per_domain_accuracy, b.tasks[t].per_domain_accuracy);
  }
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    EXPECT_EQ(a.rounds[i].selected, b.rounds[i].selected);
    EXPECT_EQ(a.rounds[i].dropped, b.rounds[i].dropped);
    EXPECT_EQ(a.rounds[i].bytes_down, b.rounds[i].bytes_down);
    EXPECT_EQ(a.rounds[i].bytes_up, b.rounds[i].bytes_up);
    EXPECT_EQ(a.rounds[i].retries, b.rounds[i].retries);
    EXPECT_EQ(a.rounds[i].quarantined, b.rounds[i].quarantined);
    EXPECT_EQ(a.rounds[i].timed_out, b.rounds[i].timed_out);
    EXPECT_EQ(a.rounds[i].bytes_retransmitted, b.rounds[i].bytes_retransmitted);
  }
  EXPECT_EQ(a.network.bytes_down_raw_equiv, b.network.bytes_down_raw_equiv);
  EXPECT_EQ(a.network.bytes_up_raw_equiv, b.network.bytes_up_raw_equiv);
  EXPECT_EQ(a.network.messages, b.network.messages);

  // The probed run also passes every output check the benchmark applies.
  EXPECT_EQ(check_cell(w, probed), std::vector<std::string>{});
  EXPECT_FALSE(probed.recorder->spans().empty());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WrapperFidelity,
                         ::testing::Values("digits-finetune", "digits-reffil",
                                           "cohort-q8"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(WrapperForwarding, CohortStreamsAndValidatesThroughTheProbes) {
  const Workload& w = *find_workload("cohort-q8");
  const Cell cell = run_cell(w, {.seed = 7, .scale = Scale::kSmoke});
  const Counters& c = cell.recorder->counters();
  // Finetune supports streaming, so the DES loop must have folded every
  // accepted update through the probed sink and never buffered a batch.
  EXPECT_GT(c.sink_adds.load(), 0u);
  EXPECT_EQ(c.sink_finishes.load(), cell.result.rounds.size());
  EXPECT_EQ(c.aggregate_calls.load(), 0u);
  // Armed faults validate every delivered update through the method's own
  // validator, reached via the probe.
  EXPECT_GT(c.validations.load(), 0u);
  EXPECT_GT(cell.result.network.retries, 0u);
}

}  // namespace
}  // namespace fdilbench
