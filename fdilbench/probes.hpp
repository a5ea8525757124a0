// Outside-in probes for the FDIL benchmark.
//
// The federated runner reaches the method and the data through two public
// seams: fed::Method (with the AggregationSink it may hand out) and
// fed::TaskSource. The wrappers here sit on those seams, forward every call
// unchanged, and record what crossed them: call and byte counters always,
// and timed spans when the recorder is in traced mode. Nothing inside the
// library is modified, so a wrapped run is bitwise-identical to a plain one
// (wrapper_fidelity_test.cpp holds that contract).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "reffil/data/generator.hpp"
#include "reffil/fed/method.hpp"
#include "reffil/fed/runtime.hpp"

namespace fdilbench {

using Clock = std::chrono::steady_clock;

/// One timed call at a layer boundary. `name` points at a string literal.
/// Coordinates that do not apply to a call are -1.
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  std::int64_t task = -1;
  std::int64_t round = -1;
  std::int64_t slot = -1;
  std::int64_t client = -1;

  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

/// Counters a wrapper keeps on every run, traced or not. Slot-concurrent
/// calls (train_client, predict) update them from pool threads.
struct Counters {
  std::atomic<std::uint64_t> train_client_calls{0};
  std::atomic<std::uint64_t> update_bytes{0};
  std::atomic<std::uint64_t> train_steps{0};  ///< local SGD batches
  std::atomic<std::uint64_t> predict_calls{0};
  std::atomic<std::uint64_t> aggregate_calls{0};  ///< batch aggregate()
  std::atomic<std::uint64_t> sink_adds{0};
  std::atomic<std::uint64_t> sink_finishes{0};
  std::atomic<std::uint64_t> validations{0};
  std::atomic<std::uint64_t> max_slot_plus_one{0};
  /// make_broadcast() sizes in call order (runner thread only), so the
  /// downlink can be reconciled round by round against RoundStats.
  std::vector<std::uint64_t> broadcast_sizes;

  void note_slot(std::size_t slot);
};

/// Owns the counters and, in traced mode, the spans of one cell. Spans from
/// worker slots go to per-slot buffers without a lock (the runner never runs
/// two calls on one slot at once); everything else, including a slot beyond
/// `slots`, goes through one mutex-guarded buffer.
class Recorder {
 public:
  Recorder(bool traced, std::size_t slots);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool traced() const { return traced_; }
  Counters& counters() { return counters_; }

  /// Records a finished span (no-op when untraced).
  void add(const Span& span);
  /// Every span of the cell, slot buffers first, in no particular order.
  std::vector<Span> spans() const;

 private:
  const bool traced_;
  Counters counters_;
  std::vector<std::vector<Span>> slot_spans_;
  mutable std::mutex mutex_;
  std::vector<Span> other_spans_;  // guarded by mutex_
};

/// Times one call when the recorder is traced; free otherwise (no clock
/// read). The span is committed when the scope closes.
class ScopedSpan {
 public:
  ScopedSpan(Recorder& recorder, const char* name, std::int64_t task = -1,
             std::int64_t round = -1, std::int64_t slot = -1,
             std::int64_t client = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder& recorder_;
  Span span_;
};

/// fed::Method wrapper: forwards every virtual to `inner`.
class ProbedMethod final : public reffil::fed::Method {
 public:
  ProbedMethod(reffil::fed::Method& inner, Recorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  std::string name() const override;
  void on_task_start(std::size_t task) override;
  std::vector<std::uint8_t> make_broadcast() override;
  reffil::fed::ClientUpdate train_client(
      const std::vector<std::uint8_t>& broadcast,
      const reffil::fed::TrainJob& job) override;
  void aggregate(
      const std::vector<reffil::fed::ClientUpdate>& updates) override;
  reffil::fed::UpdateValidator update_validator() const override;
  std::unique_ptr<reffil::fed::AggregationSink> begin_streaming_aggregate(
      std::size_t num_shards) override;
  void configure_compression(
      const reffil::fed::CompressionConfig& config) override;
  void prepare_eval() override;
  std::size_t predict(std::size_t worker_slot,
                      const reffil::tensor::Tensor& image) override;
  reffil::tensor::Tensor eval_feature(
      std::size_t worker_slot, const reffil::tensor::Tensor& image) override;

 private:
  reffil::fed::Method& inner_;
  Recorder& recorder_;
  std::int64_t task_ = -1;  ///< current task, for span coordinates
  std::int64_t round_ = -1;  ///< broadcasts since the task started, minus 1
};

/// fed::TaskSource over the spec's synthetic generator, timing each split.
class ProbedSource final : public reffil::fed::TaskSource {
 public:
  ProbedSource(const reffil::data::DatasetSpec& spec, Recorder& recorder)
      : inner_(spec), recorder_(recorder) {}

  reffil::data::Dataset train_split(std::size_t task) const override;
  reffil::data::Dataset test_split(std::size_t task) const override;

 private:
  reffil::data::SyntheticDomainSource inner_;
  Recorder& recorder_;
};

}  // namespace fdilbench
