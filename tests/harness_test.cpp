// Tests for the experiment harness: scale profiles, seeds, the result
// cache, run-result serialization, and paper reference lookups.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "reffil/harness/cache.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/harness/tables.hpp"
#include "reffil/util/error.hpp"

using namespace reffil;

TEST(Scale, SmokeShrinksButStaysPartitionable) {
  for (const auto& base : data::all_dataset_specs()) {
    const auto smoke = harness::apply_scale(base, harness::Scale::kSmoke);
    EXPECT_EQ(smoke.rounds_per_task, 1u);
    EXPECT_EQ(smoke.local_epochs, 1u);
    const std::size_t final_population =
        smoke.initial_clients +
        (smoke.domains.size() - 1) * smoke.client_increment;
    for (const auto& domain : smoke.domains) {
      EXPECT_GE(domain.train_samples, final_population * 4) << base.name;
    }
  }
}

TEST(Scale, FullDoublesDepth) {
  const auto base = data::pacs_spec();
  const auto full = harness::apply_scale(base, harness::Scale::kFull);
  EXPECT_EQ(full.rounds_per_task, base.rounds_per_task * 2);
  EXPECT_EQ(full.local_epochs, base.local_epochs * 2);
  EXPECT_EQ(full.domains[0].train_samples, base.domains[0].train_samples * 2);
}

TEST(Scale, ScaledIsIdentity) {
  const auto base = data::digits_five_spec();
  const auto scaled = harness::apply_scale(base, harness::Scale::kScaled);
  EXPECT_EQ(scaled.rounds_per_task, base.rounds_per_task);
  EXPECT_EQ(scaled.domains[0].train_samples, base.domains[0].train_samples);
}

TEST(Scale, ParseAcceptsExactlyTheProfileNames) {
  for (const auto scale : {harness::Scale::kSmoke, harness::Scale::kScaled,
                           harness::Scale::kFull}) {
    EXPECT_EQ(harness::parse_scale(harness::to_string(scale)), scale);
  }
  for (const char* bad : {"smok", "Smoke", "", "scaled ", "full2"}) {
    EXPECT_EQ(harness::parse_scale(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(Scale, EnvRejectsUnknownNames) {
  unsetenv("REFFIL_BENCH_SCALE");
  EXPECT_EQ(harness::scale_from_env(), harness::Scale::kScaled);
  setenv("REFFIL_BENCH_SCALE", "", 1);
  EXPECT_EQ(harness::scale_from_env(), harness::Scale::kScaled);
  setenv("REFFIL_BENCH_SCALE", "smoke", 1);
  EXPECT_EQ(harness::scale_from_env(), harness::Scale::kSmoke);
  setenv("REFFIL_BENCH_SCALE", "full", 1);
  EXPECT_EQ(harness::scale_from_env(), harness::Scale::kFull);
  setenv("REFFIL_BENCH_SCALE", "smok", 1);
  EXPECT_THROW(harness::scale_from_env(), ConfigError);
  unsetenv("REFFIL_BENCH_SCALE");
}

TEST(Seeds, DefaultFiveDistinct) {
  unsetenv("REFFIL_BENCH_SEEDS");
  const auto seeds = harness::bench_seeds();
  EXPECT_EQ(seeds.size(), 5u);
  std::set<std::uint64_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), seeds.size());
}

TEST(Seeds, EnvLimitsCount) {
  setenv("REFFIL_BENCH_SEEDS", "2", 1);
  EXPECT_EQ(harness::bench_seeds().size(), 2u);
  setenv("REFFIL_BENCH_SEEDS", "99", 1);  // out of range -> default
  EXPECT_EQ(harness::bench_seeds().size(), 5u);
  unsetenv("REFFIL_BENCH_SEEDS");
}

TEST(MethodRegistry, BuildsEveryMethod) {
  const auto spec = data::office_caltech10_spec();
  harness::ExperimentConfig config;
  config.parallelism = 1;
  for (const auto kind : harness::all_method_kinds()) {
    const auto method = harness::make_method(kind, spec, config);
    ASSERT_NE(method, nullptr);
    EXPECT_EQ(method->name(), harness::method_display_name(kind));
  }
}

namespace {
fed::RunResult sample_result() {
  fed::RunResult result;
  result.method_name = "RefFiL";
  result.dataset_name = "Digits-Five";
  for (std::size_t t = 0; t < 3; ++t) {
    fed::TaskResult task;
    task.task = t;
    task.domain_name = "D" + std::to_string(t);
    for (std::size_t d = 0; d <= t; ++d) {
      task.per_domain_accuracy.push_back(90.0 - 10.0 * static_cast<double>(d));
    }
    task.cumulative_accuracy = 80.0 + static_cast<double>(t);
    task.eval_seconds = 0.25 + static_cast<double>(t);
    result.tasks.push_back(std::move(task));
  }
  result.network.bytes_down = 1000;
  result.network.bytes_up = 900;
  result.network.messages = 42;
  result.network.dropped_updates = 5;
  result.network.quarantined = 3;
  result.network.retries = 7;
  result.network.timed_out = 2;
  result.network.bytes_retransmitted = 123;
  result.wall_seconds = 1.5;
  for (std::uint32_t r = 0; r < 3; ++r) {
    fed::RoundStats round;
    round.task = r;
    round.round = r;
    round.selected = 10 + r;
    round.dropped = r;
    round.bytes_down = 300 + r;
    round.bytes_up = 280 + r;
    round.train_seconds = 0.5 + r;
    round.aggregate_seconds = 0.01 * (r + 1);
    round.quarantined = r;
    round.retries = 2 * r + 1;
    round.timed_out = r;
    round.bytes_retransmitted = 40 + r;
    result.rounds.push_back(round);
  }
  fed::HealthEvent event;
  event.task = 1;
  event.round = 2;
  event.global_round = 5;
  event.detector = "quarantine_rate";
  event.value = 0.4;
  event.threshold = 0.25;
  event.detail = "4/10 updates quarantined in round 2";
  result.health.push_back(event);
  result.monitor.enabled = true;
  result.monitor.healthy_at_end = false;
  return result;
}

// The v1 (headerless) cache encoding, reproduced byte for byte: no magic,
// no version, no eval_seconds, no dropped_updates, no per-round stats.
void legacy_v1_serialize(const fed::RunResult& result,
                         util::ByteWriter& writer) {
  writer.write_string(result.method_name);
  writer.write_string(result.dataset_name);
  writer.write_u64(result.tasks.size());
  for (const auto& task : result.tasks) {
    writer.write_u64(task.task);
    writer.write_string(task.domain_name);
    writer.write_u64(task.per_domain_accuracy.size());
    for (double a : task.per_domain_accuracy) writer.write_f64(a);
    writer.write_f64(task.cumulative_accuracy);
  }
  writer.write_u64(result.network.bytes_down);
  writer.write_u64(result.network.bytes_up);
  writer.write_u64(result.network.messages);
  writer.write_f64(result.wall_seconds);
}
}  // namespace

TEST(RunResultSerialization, RoundTripPreservesEveryField) {
  const fed::RunResult original = sample_result();
  util::ByteWriter writer;
  harness::serialize_run_result(original, writer);
  util::ByteReader reader(writer.bytes());
  const fed::RunResult back = harness::deserialize_run_result(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(back.method_name, original.method_name);
  EXPECT_EQ(back.dataset_name, original.dataset_name);
  ASSERT_EQ(back.tasks.size(), original.tasks.size());
  for (std::size_t t = 0; t < back.tasks.size(); ++t) {
    EXPECT_EQ(back.tasks[t].domain_name, original.tasks[t].domain_name);
    EXPECT_EQ(back.tasks[t].per_domain_accuracy,
              original.tasks[t].per_domain_accuracy);
    EXPECT_DOUBLE_EQ(back.tasks[t].cumulative_accuracy,
                     original.tasks[t].cumulative_accuracy);
    EXPECT_DOUBLE_EQ(back.tasks[t].eval_seconds,
                     original.tasks[t].eval_seconds);
  }
  EXPECT_EQ(back.network.bytes_down, original.network.bytes_down);
  EXPECT_EQ(back.network.bytes_up, original.network.bytes_up);
  EXPECT_EQ(back.network.messages, original.network.messages);
  EXPECT_EQ(back.network.dropped_updates, original.network.dropped_updates);
  EXPECT_EQ(back.network.quarantined, original.network.quarantined);
  EXPECT_EQ(back.network.retries, original.network.retries);
  EXPECT_EQ(back.network.timed_out, original.network.timed_out);
  EXPECT_EQ(back.network.bytes_retransmitted,
            original.network.bytes_retransmitted);
  EXPECT_DOUBLE_EQ(back.wall_seconds, original.wall_seconds);
  ASSERT_EQ(back.rounds.size(), original.rounds.size());
  for (std::size_t r = 0; r < back.rounds.size(); ++r) {
    EXPECT_EQ(back.rounds[r].task, original.rounds[r].task);
    EXPECT_EQ(back.rounds[r].selected, original.rounds[r].selected);
    EXPECT_EQ(back.rounds[r].dropped, original.rounds[r].dropped);
    EXPECT_EQ(back.rounds[r].bytes_down, original.rounds[r].bytes_down);
    EXPECT_EQ(back.rounds[r].bytes_up, original.rounds[r].bytes_up);
    EXPECT_DOUBLE_EQ(back.rounds[r].train_seconds,
                     original.rounds[r].train_seconds);
    EXPECT_DOUBLE_EQ(back.rounds[r].aggregate_seconds,
                     original.rounds[r].aggregate_seconds);
    EXPECT_EQ(back.rounds[r].quarantined, original.rounds[r].quarantined);
    EXPECT_EQ(back.rounds[r].retries, original.rounds[r].retries);
    EXPECT_EQ(back.rounds[r].timed_out, original.rounds[r].timed_out);
    EXPECT_EQ(back.rounds[r].bytes_retransmitted,
              original.rounds[r].bytes_retransmitted);
  }
  // v5+: the health log and monitor status survive the cache.
  ASSERT_EQ(back.health.size(), original.health.size());
  EXPECT_EQ(back.health[0].task, original.health[0].task);
  EXPECT_EQ(back.health[0].round, original.health[0].round);
  EXPECT_EQ(back.health[0].global_round, original.health[0].global_round);
  EXPECT_EQ(back.health[0].detector, original.health[0].detector);
  EXPECT_DOUBLE_EQ(back.health[0].value, original.health[0].value);
  EXPECT_DOUBLE_EQ(back.health[0].threshold, original.health[0].threshold);
  EXPECT_EQ(back.health[0].detail, original.health[0].detail);
  EXPECT_EQ(back.monitor.enabled, original.monitor.enabled);
  EXPECT_EQ(back.monitor.healthy_at_end, original.monitor.healthy_at_end);
}

TEST(RunResultSerialization, LegacyV1FormatLosesDropoutsAndIsRejected) {
  // Regression for the original bug: the v1 encoding simply has no
  // dropped_updates field, so a cache hit silently zeroed the dropout count.
  const fed::RunResult original = sample_result();
  ASSERT_EQ(original.network.dropped_updates, 5u);
  util::ByteWriter legacy;
  legacy_v1_serialize(original, legacy);
  // Nothing in the v1 byte stream encodes the value 5 — the statistic is
  // unrecoverable from a v1 entry, which is why the format had to change.
  util::ByteWriter current;
  harness::serialize_run_result(original, current);
  EXPECT_GT(current.size(), legacy.size());
  // The versioned loader refuses the headerless bytes instead of decoding
  // them field-by-field into a half-right RunResult.
  util::ByteReader reader(legacy.bytes());
  EXPECT_THROW(harness::deserialize_run_result(reader), SerializationError);
}

TEST(RunResultSerialization, WrongVersionIsRejected) {
  util::ByteWriter writer;
  writer.write_u32(harness::kCacheMagic);
  writer.write_u32(harness::kCacheVersion + 1);
  writer.write_string("RefFiL");
  util::ByteReader reader(writer.bytes());
  EXPECT_THROW(harness::deserialize_run_result(reader), SerializationError);
}

TEST(Cache, StoreThenLoad) {
  setenv("REFFIL_CACHE_DIR", "/tmp/reffil_test_cache", 1);
  std::filesystem::remove_all("/tmp/reffil_test_cache");
  const std::string key =
      harness::cache_key("Digits-Five", "orig", "RefFiL", 7, "scaled");
  EXPECT_FALSE(harness::cache_load(key).has_value());
  harness::cache_store(key, sample_result());
  const auto loaded = harness::cache_load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->method_name, "RefFiL");
  EXPECT_NEAR(loaded->average_accuracy(), 81.0, 1e-9);
  // The cache-hit path keeps the dropout count and the round breakdowns —
  // the original bug returned dropped_updates == 0 from every hit.
  EXPECT_EQ(loaded->network.dropped_updates, 5u);
  EXPECT_EQ(loaded->rounds.size(), 3u);
  unsetenv("REFFIL_CACHE_DIR");
}

TEST(Cache, DistinctKeysForDistinctCells) {
  std::set<std::string> keys;
  for (const char* dataset : {"Digits-Five", "PACS"}) {
    for (const char* order : {"orig", "neworder"}) {
      for (std::uint64_t seed : {1, 2}) {
        keys.insert(harness::cache_key(dataset, order, "RefFiL", seed, "scaled"));
      }
    }
  }
  EXPECT_EQ(keys.size(), 8u);
}

TEST(Cache, OffDisablesEverything) {
  setenv("REFFIL_CACHE_DIR", "off", 1);
  EXPECT_FALSE(harness::cache_enabled());
  harness::cache_store("whatever.cell", sample_result());
  EXPECT_FALSE(harness::cache_load("whatever.cell").has_value());
  unsetenv("REFFIL_CACHE_DIR");
}

TEST(Cache, CorruptEntryIsDeletedNotJustSkipped) {
  setenv("REFFIL_CACHE_DIR", "/tmp/reffil_test_cache2", 1);
  std::filesystem::create_directories("/tmp/reffil_test_cache2");
  const std::string key = "corrupt.cell";
  {
    std::ofstream out("/tmp/reffil_test_cache2/corrupt.cell", std::ios::binary);
    out << "garbage";
  }
  EXPECT_FALSE(harness::cache_load(key).has_value());
  // Deleted on first rejection, so it is not re-parsed every invocation.
  EXPECT_FALSE(std::filesystem::exists("/tmp/reffil_test_cache2/corrupt.cell"));
  unsetenv("REFFIL_CACHE_DIR");
}

TEST(Cache, LegacyFormatEntryIsRejectedAndDeleted) {
  setenv("REFFIL_CACHE_DIR", "/tmp/reffil_test_cache3", 1);
  std::filesystem::remove_all("/tmp/reffil_test_cache3");
  std::filesystem::create_directories("/tmp/reffil_test_cache3");
  util::ByteWriter writer;
  legacy_v1_serialize(sample_result(), writer);
  {
    std::ofstream out("/tmp/reffil_test_cache3/old.cell", std::ios::binary);
    out.write(reinterpret_cast<const char*>(writer.bytes().data()),
              static_cast<std::streamsize>(writer.bytes().size()));
  }
  EXPECT_FALSE(harness::cache_load("old.cell").has_value());
  EXPECT_FALSE(std::filesystem::exists("/tmp/reffil_test_cache3/old.cell"));
  unsetenv("REFFIL_CACHE_DIR");
}

TEST(Cache, TrailingBytesAreRejected) {
  // A format mismatch can deserialize "successfully" if field sizes happen
  // to align — leftover bytes are the signal that it did not consume the
  // entry cleanly, so the loader must reject (and delete) such files.
  setenv("REFFIL_CACHE_DIR", "/tmp/reffil_test_cache4", 1);
  std::filesystem::remove_all("/tmp/reffil_test_cache4");
  std::filesystem::create_directories("/tmp/reffil_test_cache4");
  util::ByteWriter writer;
  harness::serialize_run_result(sample_result(), writer);
  auto bytes = writer.take();
  bytes.insert(bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  {
    std::ofstream out("/tmp/reffil_test_cache4/trailing.cell",
                      std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(harness::cache_load("trailing.cell").has_value());
  EXPECT_FALSE(
      std::filesystem::exists("/tmp/reffil_test_cache4/trailing.cell"));
  unsetenv("REFFIL_CACHE_DIR");
}

TEST(PaperReference, KnownCellsPresent) {
  const auto finetune =
      harness::paper_reference("OfficeCaltech10", harness::MethodKind::kFinetune,
                               /*new_order=*/false);
  ASSERT_TRUE(finetune.has_value());
  EXPECT_NEAR(finetune->avg, 44.56, 1e-9);
  EXPECT_NEAR(finetune->last, 19.29, 1e-9);
  ASSERT_EQ(finetune->steps.size(), 4u);
  EXPECT_NEAR(finetune->steps[0], 76.56, 1e-9);

  const auto reffil = harness::paper_reference(
      "Digits-Five", harness::MethodKind::kRefFiL, /*new_order=*/true);
  ASSERT_TRUE(reffil.has_value());
  EXPECT_NEAR(reffil->avg, 69.36, 1e-9);
}

TEST(PaperReference, EveryTableCellHasAvgAndLast) {
  for (const auto& spec : data::all_dataset_specs()) {
    for (const auto kind : harness::all_method_kinds()) {
      for (bool new_order : {false, true}) {
        const auto cell = harness::paper_reference(spec.name, kind, new_order);
        ASSERT_TRUE(cell.has_value())
            << spec.name << " " << harness::method_display_name(kind);
        EXPECT_GT(cell->avg, 0.0);
        EXPECT_GT(cell->last, 0.0);
      }
    }
  }
}

TEST(PaperReference, RefFiLIsFirstInPaperTables) {
  // The paper's headline: RefFiL has the best Avg on every dataset in both
  // orders — our encoded reference values must reflect that.
  for (const auto& spec : data::all_dataset_specs()) {
    for (bool new_order : {false, true}) {
      const double reffil_avg =
          harness::paper_reference(spec.name, harness::MethodKind::kRefFiL,
                                   new_order)
              ->avg;
      for (const auto kind : harness::all_method_kinds()) {
        if (kind == harness::MethodKind::kRefFiL) continue;
        EXPECT_GT(reffil_avg,
                  harness::paper_reference(spec.name, kind, new_order)->avg)
            << spec.name;
      }
    }
  }
}

TEST(PaperAblation, RowsMatchTableFive) {
  const auto rows = harness::paper_ablation_rows();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_FALSE(rows.front().cdap);  // Finetune row
  EXPECT_TRUE(rows.back().cdap && rows.back().gpl && rows.back().dpcl);
  EXPECT_NEAR(rows.back().avg, 53.56, 1e-9);
  // Every component row in the paper improves on the baseline.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].avg, rows.front().avg);
    EXPECT_GT(rows[i].last, rows.front().last);
  }
}
