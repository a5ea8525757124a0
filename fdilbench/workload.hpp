// The benchmark's workloads and the single-cell runner they share.
//
// A cell is one whole rehearsal-free federated domain-incremental run —
// T domains, R rounds each, evaluation after every task — driven through
// the public library API exactly as a library user would:
// harness::apply_scale -> harness::make_method -> fed::FederatedRunner::run.
// Every setting a workload does not name comes from ExperimentConfig{}, so a
// change to a library default shows up in the numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.hpp"
#include "reffil/harness/experiment.hpp"
#include "reffil/util/obs.hpp"

namespace fdilbench {

/// All three workloads run Digits-Five; each pair differs in one layer.
struct Workload {
  std::string name;
  std::string why;
  reffil::harness::MethodKind method = reffil::harness::MethodKind::kFinetune;
  std::string des;       ///< DesConfig::parse spec; empty = dense loop
  std::string compress;  ///< CompressionConfig::parse spec; empty = off
  std::string faults;    ///< FaultProfile::parse spec; empty = inert
};

const std::vector<Workload>& workloads();
/// Null when no workload has that name.
const Workload* find_workload(const std::string& name);

struct CellOptions {
  std::uint64_t seed = 7;
  reffil::harness::Scale scale = reffil::harness::Scale::kScaled;
  /// False runs the method and data source bare (no probes), the reference
  /// the wrapper-fidelity test compares against.
  bool wrapped = true;
  bool traced = false;
  std::uint32_t run = 0;  ///< cell index within the benchmark process
};

/// One finished cell. The registry snapshot covers exactly this cell: the
/// process registry is reset before its set-up starts.
struct Cell {
  CellOptions options;
  reffil::data::DatasetSpec spec;  ///< the scaled spec the runner used
  reffil::fed::RunResult result;
  std::size_t parallelism = 0;  ///< slots the runner was configured with
  Clock::time_point setup_start;
  Clock::time_point run_start;
  Clock::time_point run_end;
  reffil::obs::Registry::Snapshot registry;
  std::unique_ptr<Recorder> recorder;  ///< null for unwrapped cells

  double setup_s() const;
  double run_s() const;
  /// Images one evaluation sweep per task classifies in total.
  std::uint64_t eval_images() const;
  std::uint64_t participants() const;
  /// Updates lost to dropout, quarantine or the round deadline.
  std::uint64_t failed_updates() const;
};

/// Builds the cell's method and runner (timed as set-up), then runs it.
Cell run_cell(const Workload& workload, const CellOptions& options);

/// Times set-up alone (spec scaling, make_method, runner construction) and
/// discards what it built.
double setup_only(const Workload& workload, const CellOptions& options);

/// Output checks; each returned string names one failed check.
std::vector<std::string> check_cell(const Workload& workload, const Cell& cell);

}  // namespace fdilbench
