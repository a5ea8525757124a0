#include "probes.hpp"

#include "reffil/cl/method_base.hpp"

namespace fdilbench {

namespace fed = reffil::fed;

void Counters::note_slot(std::size_t slot) {
  const std::uint64_t want = slot + 1;
  std::uint64_t seen = max_slot_plus_one.load(std::memory_order_relaxed);
  while (seen < want && !max_slot_plus_one.compare_exchange_weak(
                            seen, want, std::memory_order_relaxed)) {
  }
}

Recorder::Recorder(bool traced, std::size_t slots)
    : traced_(traced), slot_spans_(slots) {}

void Recorder::add(const Span& span) {
  if (!traced_) return;
  if (span.slot >= 0 &&
      static_cast<std::size_t>(span.slot) < slot_spans_.size()) {
    slot_spans_[static_cast<std::size_t>(span.slot)].push_back(span);
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  other_spans_.push_back(span);
}

std::vector<Span> Recorder::spans() const {
  std::vector<Span> all;
  for (const auto& slot : slot_spans_) {
    all.insert(all.end(), slot.begin(), slot.end());
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  all.insert(all.end(), other_spans_.begin(), other_spans_.end());
  return all;
}

ScopedSpan::ScopedSpan(Recorder& recorder, const char* name, std::int64_t task,
                       std::int64_t round, std::int64_t slot,
                       std::int64_t client)
    : recorder_(recorder) {
  if (!recorder_.traced()) return;
  span_.name = name;
  span_.task = task;
  span_.round = round;
  span_.slot = slot;
  span_.client = client;
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!recorder_.traced()) return;
  span_.end = Clock::now();
  recorder_.add(span_);
}

namespace {

/// Streaming-aggregation sink wrapper: the DES loop folds each accepted
/// update through add() and commits the round with finish().
class ProbedSink final : public fed::AggregationSink {
 public:
  ProbedSink(std::unique_ptr<fed::AggregationSink> inner, Recorder& recorder,
             std::int64_t task, std::int64_t round)
      : inner_(std::move(inner)), recorder_(recorder), task_(task),
        round_(round) {}

  void add(const fed::ClientUpdate& update) override {
    ScopedSpan span(recorder_, "cl.aggregate", task_, round_, -1,
                    static_cast<std::int64_t>(update.client_id));
    recorder_.counters().sink_adds.fetch_add(1, std::memory_order_relaxed);
    inner_->add(update);
  }
  std::size_t count() const override { return inner_->count(); }
  void finish() override {
    ScopedSpan span(recorder_, "cl.aggregate", task_, round_);
    recorder_.counters().sink_finishes.fetch_add(1, std::memory_order_relaxed);
    inner_->finish();
  }

 private:
  std::unique_ptr<fed::AggregationSink> inner_;
  Recorder& recorder_;
  const std::int64_t task_;
  const std::int64_t round_;
};

}  // namespace

std::string ProbedMethod::name() const { return inner_.name(); }

void ProbedMethod::on_task_start(std::size_t task) {
  task_ = static_cast<std::int64_t>(task);
  round_ = -1;
  ScopedSpan span(recorder_, "cl.task_start", task_);
  inner_.on_task_start(task);
}

std::vector<std::uint8_t> ProbedMethod::make_broadcast() {
  ++round_;
  ScopedSpan span(recorder_, "cl.broadcast", task_, round_);
  std::vector<std::uint8_t> broadcast = inner_.make_broadcast();
  recorder_.counters().broadcast_sizes.push_back(broadcast.size());
  return broadcast;
}

fed::ClientUpdate ProbedMethod::train_client(
    const std::vector<std::uint8_t>& broadcast, const fed::TrainJob& job) {
  static const std::size_t kBatch = reffil::cl::MethodConfig{}.batch_size;
  fed::ClientUpdate update;
  {
    ScopedSpan span(recorder_, "cl.train_client",
                    static_cast<std::int64_t>(job.task),
                    static_cast<std::int64_t>(job.round),
                    static_cast<std::int64_t>(job.worker_slot),
                    static_cast<std::int64_t>(job.client_id));
    update = inner_.train_client(broadcast, job);
  }
  Counters& c = recorder_.counters();
  c.note_slot(job.worker_slot);
  c.train_client_calls.fetch_add(1, std::memory_order_relaxed);
  c.update_bytes.fetch_add(update.payload.size(), std::memory_order_relaxed);
  c.train_steps.fetch_add(
      job.local_epochs * ((update.num_samples + kBatch - 1) / kBatch),
      std::memory_order_relaxed);
  return update;
}

void ProbedMethod::aggregate(const std::vector<fed::ClientUpdate>& updates) {
  ScopedSpan span(recorder_, "cl.aggregate", task_, round_);
  recorder_.counters().aggregate_calls.fetch_add(1, std::memory_order_relaxed);
  inner_.aggregate(updates);
}

fed::UpdateValidator ProbedMethod::update_validator() const {
  fed::UpdateValidator inner = inner_.update_validator();
  Counters* counters = &recorder_.counters();
  return [inner = std::move(inner), counters](
             const std::vector<std::uint8_t>& payload, std::string* reason) {
    counters->validations.fetch_add(1, std::memory_order_relaxed);
    return inner(payload, reason);
  };
}

std::unique_ptr<fed::AggregationSink> ProbedMethod::begin_streaming_aggregate(
    std::size_t num_shards) {
  std::unique_ptr<fed::AggregationSink> inner =
      inner_.begin_streaming_aggregate(num_shards);
  if (inner == nullptr) return nullptr;
  return std::make_unique<ProbedSink>(std::move(inner), recorder_, task_,
                                      round_);
}

void ProbedMethod::configure_compression(const fed::CompressionConfig& config) {
  inner_.configure_compression(config);
}

void ProbedMethod::prepare_eval() {
  ScopedSpan span(recorder_, "cl.prepare_eval", task_);
  inner_.prepare_eval();
}

std::size_t ProbedMethod::predict(std::size_t worker_slot,
                                  const reffil::tensor::Tensor& image) {
  std::size_t label = 0;
  {
    ScopedSpan span(recorder_, "cl.predict", task_, -1,
                    static_cast<std::int64_t>(worker_slot));
    label = inner_.predict(worker_slot, image);
  }
  Counters& c = recorder_.counters();
  c.note_slot(worker_slot);
  c.predict_calls.fetch_add(1, std::memory_order_relaxed);
  return label;
}

reffil::tensor::Tensor ProbedMethod::eval_feature(
    std::size_t worker_slot, const reffil::tensor::Tensor& image) {
  return inner_.eval_feature(worker_slot, image);
}

reffil::data::Dataset ProbedSource::train_split(std::size_t task) const {
  ScopedSpan span(recorder_, "data.train_split",
                  static_cast<std::int64_t>(task));
  return inner_.train_split(task);
}

reffil::data::Dataset ProbedSource::test_split(std::size_t task) const {
  ScopedSpan span(recorder_, "data.test_split",
                  static_cast<std::int64_t>(task));
  return inner_.test_split(task);
}

}  // namespace fdilbench
