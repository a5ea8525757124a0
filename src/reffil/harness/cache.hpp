// On-disk experiment-result cache.
//
// Several bench binaries share experiment cells (Table 1 and Table 3 are two
// views of the same runs; Figures 4-6 reuse Table 1's curricula). Each cell
// — (dataset, domain order, method, seed, scale) — is memoised in a small
// binary file under REFFIL_CACHE_DIR (default: ./reffil_cache), so running
// the whole bench suite costs one federated run per unique cell.
#pragma once

#include <optional>
#include <string>

#include "reffil/fed/runtime.hpp"

namespace reffil::harness {

/// Cache directory (creates it on first use). Overridable with the
/// REFFIL_CACHE_DIR environment variable; caching is disabled entirely when
/// REFFIL_CACHE_DIR=off.
std::string cache_directory();
bool cache_enabled();

/// Cache file header: every `.cell` entry starts with kCacheMagic then
/// kCacheVersion (little-endian u32 each). Foreign files fail the magic;
/// entries from other format revisions fail the version — both are rejected
/// (and deleted by cache_load) instead of being decoded field-by-field into
/// garbage. Bump kCacheVersion whenever the RunResult encoding changes.
/// History: v1 (headerless) lost network.dropped_updates on every cache hit;
/// v2 added the header, dropped_updates, per-task eval_seconds and the
/// per-round stats vector; v3 added the transport-fault counters
/// (quarantined/retries/timed_out/bytes_retransmitted at both granularities);
/// v4 added the compression string and the raw-equivalent byte counters
/// (bytes_down_raw_equiv/bytes_up_raw_equiv); v5 added the health log and
/// the monitor summary; v6 dropped the summary's time-series sample counts
/// and its alert count (the health log's length).
inline constexpr std::uint32_t kCacheMagic = 0x4C464652u;  // "RFFL"
inline constexpr std::uint32_t kCacheVersion = 6;

/// Stable key for one experiment cell. `fault_tag` is the canonical
/// FaultProfile::tag() of the run, with DesConfig::tag() appended when the
/// discrete-event federation is enabled — empty for the default dense
/// zero-fault run, so every pre-existing cell key is unchanged; an armed
/// profile or DES config hashes to a distinct key instead of aliasing the
/// clean run's cached result.
std::string cache_key(const std::string& dataset_name,
                      const std::string& domain_order_tag,
                      const std::string& method_name, std::uint64_t seed,
                      const std::string& scale_tag,
                      const std::string& fault_tag = "");

std::optional<fed::RunResult> cache_load(const std::string& key);
void cache_store(const std::string& key, const fed::RunResult& result);

/// Serialization of RunResult (used by the cache and tested directly).
void serialize_run_result(const fed::RunResult& result, util::ByteWriter& writer);
fed::RunResult deserialize_run_result(util::ByteReader& reader);

}  // namespace reffil::harness
