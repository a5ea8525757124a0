#include "reffil/fed/method.hpp"

#include "reffil/fed/fedavg.hpp"
#include "reffil/util/thread_pool.hpp"

namespace reffil::fed {

std::size_t resolve_worker_slots(std::size_t parallelism) {
  return parallelism == 0 ? util::global_thread_pool().size() : parallelism;
}

UpdateValidator Method::update_validator() const {
  return [](const std::vector<std::uint8_t>& payload, std::string* reason) {
    return validate_state_prefix(payload, reason);
  };
}

std::unique_ptr<AggregationSink> Method::begin_streaming_aggregate(
    std::size_t) {
  return nullptr;
}

}  // namespace reffil::fed
