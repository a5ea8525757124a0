#include "reffil/harness/cache.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "reffil/util/error.hpp"
#include "reffil/util/logging.hpp"

namespace reffil::harness {

namespace fs = std::filesystem;

std::string cache_directory() {
  const char* env = std::getenv("REFFIL_CACHE_DIR");
  std::string dir = env != nullptr ? env : "reffil_cache";
  if (dir == "off") return dir;
  std::error_code ec;
  fs::create_directories(dir, ec);  // best effort; load/store handle failure
  return dir;
}

bool cache_enabled() {
  const char* env = std::getenv("REFFIL_CACHE_DIR");
  return env == nullptr || std::string(env) != "off";
}

std::string cache_key(const std::string& dataset_name,
                      const std::string& domain_order_tag,
                      const std::string& method_name, std::uint64_t seed,
                      const std::string& scale_tag,
                      const std::string& fault_tag) {
  // FNV-1a over the identifying string keeps file names short and safe.
  // The fault tag is appended only when non-empty so zero-fault runs keep
  // the exact keys (and thus cached cells) they had before faults existed.
  const std::string id = dataset_name + "|" + domain_order_tag + "|" +
                         method_name + "|" + std::to_string(seed) + "|" +
                         scale_tag +
                         (fault_tag.empty() ? "" : "|" + fault_tag);
  std::uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : id) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buffer) + ".cell";
}

void serialize_run_result(const fed::RunResult& result, util::ByteWriter& writer) {
  writer.write_u32(kCacheMagic);
  writer.write_u32(kCacheVersion);
  writer.write_string(result.method_name);
  writer.write_string(result.dataset_name);
  writer.write_u64(result.tasks.size());
  for (const auto& task : result.tasks) {
    writer.write_u64(task.task);
    writer.write_string(task.domain_name);
    writer.write_u64(task.per_domain_accuracy.size());
    for (double a : task.per_domain_accuracy) writer.write_f64(a);
    writer.write_f64(task.cumulative_accuracy);
    writer.write_f64(task.eval_seconds);
  }
  writer.write_u64(result.network.bytes_down);
  writer.write_u64(result.network.bytes_up);
  writer.write_u64(result.network.messages);
  // v1 stopped here: dropped_updates was never written, so cache hits
  // silently zeroed the dropout statistic on the way back out.
  writer.write_u64(result.network.dropped_updates);
  // v2 stopped here: a cache hit zeroed every transport-fault counter, so an
  // armed run replayed from cache looked indistinguishable from a clean one.
  writer.write_u64(result.network.quarantined);
  writer.write_u64(result.network.retries);
  writer.write_u64(result.network.timed_out);
  writer.write_u64(result.network.bytes_retransmitted);
  // v3 stopped here: compressed cells replayed from cache would forget they
  // were compressed and report zero raw-equivalent traffic.
  writer.write_string(result.compression);
  writer.write_u64(result.network.bytes_down_raw_equiv);
  writer.write_u64(result.network.bytes_up_raw_equiv);
  writer.write_f64(result.wall_seconds);
  writer.write_u64(result.rounds.size());
  for (const auto& round : result.rounds) {
    writer.write_u32(round.task);
    writer.write_u32(round.round);
    writer.write_u32(round.selected);
    writer.write_u32(round.dropped);
    writer.write_u64(round.bytes_down);
    writer.write_u64(round.bytes_up);
    writer.write_f64(round.train_seconds);
    writer.write_f64(round.aggregate_seconds);
    writer.write_u32(round.quarantined);
    writer.write_u32(round.retries);
    writer.write_u32(round.timed_out);
    writer.write_u64(round.bytes_retransmitted);
  }
  // v4 stopped here: monitored runs replayed from cache lost their health
  // log, so reffil_report's alerts column went blank on every cache hit.
  writer.write_u64(result.health.size());
  for (const auto& event : result.health) {
    writer.write_u32(event.task);
    writer.write_u32(event.round);
    writer.write_u64(event.global_round);
    writer.write_string(event.detector);
    writer.write_f64(event.value);
    writer.write_f64(event.threshold);
    writer.write_string(event.detail);
  }
  writer.write_u32(result.monitor.enabled ? 1 : 0);
  writer.write_u32(result.monitor.healthy_at_end ? 1 : 0);
}

fed::RunResult deserialize_run_result(util::ByteReader& reader) {
  const auto magic = reader.read_u32();
  if (magic != kCacheMagic) {
    throw SerializationError("not a reffil cache entry (bad magic)");
  }
  const auto version = reader.read_u32();
  if (version != kCacheVersion) {
    throw SerializationError("unsupported cache format version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kCacheVersion) + ")");
  }
  fed::RunResult result;
  result.method_name = reader.read_string();
  result.dataset_name = reader.read_string();
  const auto num_tasks = reader.read_u64();
  if (num_tasks > 1000) throw SerializationError("implausible task count");
  result.tasks.reserve(num_tasks);
  for (std::uint64_t t = 0; t < num_tasks; ++t) {
    fed::TaskResult task;
    task.task = reader.read_u64();
    task.domain_name = reader.read_string();
    const auto domains = reader.read_u64();
    if (domains > 1000) throw SerializationError("implausible domain count");
    task.per_domain_accuracy.reserve(domains);
    for (std::uint64_t d = 0; d < domains; ++d) {
      task.per_domain_accuracy.push_back(reader.read_f64());
    }
    task.cumulative_accuracy = reader.read_f64();
    task.eval_seconds = reader.read_f64();
    result.tasks.push_back(std::move(task));
  }
  result.network.bytes_down = reader.read_u64();
  result.network.bytes_up = reader.read_u64();
  result.network.messages = reader.read_u64();
  result.network.dropped_updates = reader.read_u64();
  result.network.quarantined = reader.read_u64();
  result.network.retries = reader.read_u64();
  result.network.timed_out = reader.read_u64();
  result.network.bytes_retransmitted = reader.read_u64();
  result.compression = reader.read_string();
  result.network.bytes_down_raw_equiv = reader.read_u64();
  result.network.bytes_up_raw_equiv = reader.read_u64();
  result.wall_seconds = reader.read_f64();
  const auto num_rounds = reader.read_u64();
  if (num_rounds > 1000000) throw SerializationError("implausible round count");
  result.rounds.reserve(num_rounds);
  for (std::uint64_t r = 0; r < num_rounds; ++r) {
    fed::RoundStats round;
    round.task = reader.read_u32();
    round.round = reader.read_u32();
    round.selected = reader.read_u32();
    round.dropped = reader.read_u32();
    round.bytes_down = reader.read_u64();
    round.bytes_up = reader.read_u64();
    round.train_seconds = reader.read_f64();
    round.aggregate_seconds = reader.read_f64();
    round.quarantined = reader.read_u32();
    round.retries = reader.read_u32();
    round.timed_out = reader.read_u32();
    round.bytes_retransmitted = reader.read_u64();
    result.rounds.push_back(round);
  }
  const auto num_health = reader.read_u64();
  if (num_health > 1000000) {
    throw SerializationError("implausible health-event count");
  }
  result.health.reserve(num_health);
  for (std::uint64_t h = 0; h < num_health; ++h) {
    fed::HealthEvent event;
    event.task = reader.read_u32();
    event.round = reader.read_u32();
    event.global_round = reader.read_u64();
    event.detector = reader.read_string();
    event.value = reader.read_f64();
    event.threshold = reader.read_f64();
    event.detail = reader.read_string();
    result.health.push_back(std::move(event));
  }
  result.monitor.enabled = reader.read_u32() != 0;
  result.monitor.healthy_at_end = reader.read_u32() != 0;
  return result;
}

std::optional<fed::RunResult> cache_load(const std::string& key) {
  if (!cache_enabled()) return std::nullopt;
  const fs::path path = fs::path(cache_directory()) / key;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  in.close();
  try {
    util::ByteReader reader(bytes);
    fed::RunResult result = deserialize_run_result(reader);
    if (!reader.exhausted()) {
      // Field sizes of a foreign/old format can happen to line up with ours;
      // trailing bytes are the tell that this entry is not a clean v-current
      // encoding, so treat it as corrupt rather than returning garbage.
      throw SerializationError("trailing bytes after run result");
    }
    return result;
  } catch (const Error& e) {
    // Delete, don't just skip: a corrupt/old-format entry would otherwise be
    // re-read and re-rejected on every invocation of every bench binary.
    REFFIL_LOG_WARN << "deleting unreadable cache entry " << path.string()
                    << " (" << e.what() << ")";
    std::error_code ec;
    fs::remove(path, ec);
    return std::nullopt;
  }
}

void cache_store(const std::string& key, const fed::RunResult& result) {
  if (!cache_enabled()) return;
  util::ByteWriter writer;
  serialize_run_result(result, writer);
  const fs::path path = fs::path(cache_directory()) / key;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    REFFIL_LOG_WARN << "cannot write cache entry " << path.string();
    return;
  }
  out.write(reinterpret_cast<const char*>(writer.bytes().data()),
            static_cast<std::streamsize>(writer.bytes().size()));
}

}  // namespace reffil::harness
