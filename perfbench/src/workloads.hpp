// The benchmark's named workloads: each one is a harness::Scenario in the
// paper's geo calibration, run with signatures verified and the safety
// auditor on. README.md in this directory says why each exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sftbft/harness/scenario.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// Scenario at a given seed (duration, warmup and tail included).
  sftbft::harness::Scenario (*make)(std::uint64_t seed);
};

/// Every workload, in BENCHMARK.json order.
[[nodiscard]] const std::vector<Workload>& workloads();

/// The workload called `name`, or nullptr.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// The deployment `scenario` runs on. Replica heterogeneity (which replicas
/// are slow) is drawn from one fixed seed: it is the cluster under test,
/// like the paper's fixed machine placement, so it does not vary between
/// runs. The scenario's seed drives everything else (client arrivals,
/// network jitter, keys).
[[nodiscard]] sftbft::engine::DeploymentConfig deployment_config(
    const sftbft::harness::Scenario& scenario);

/// Seed of repetition `rep` of a run started with `seed` (splitmix64), so
/// repetitions of one run are distinct deployments and the same run seed
/// always yields the same repetitions.
[[nodiscard]] std::uint64_t rep_seed(std::uint64_t seed, std::uint32_t rep);

}  // namespace perfbench
