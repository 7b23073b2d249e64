// One repetition of a workload: build the deployment, run it in 50 ms
// simulated slices, and collect what the end-to-end and per-layer metrics
// are computed from, plus the output checks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sftbft/harness/scenario.hpp"
#include "sftbft/types/block.hpp"

namespace perfbench {

/// Simulated time per wall-timed slice of the timed phase.
inline constexpr sftbft::SimDuration kSlice = sftbft::millis(50);
/// Slices between two calibration chunks (calibrate.hpp), outside the
/// slices' timing.
inline constexpr std::uint32_t kSlicesPerCalibration = 20;

struct RepOutcome {
  // --- output checks ---
  std::uint64_t auditor_violations = 0;
  std::uint64_t window_blocks = 0;  ///< in-window blocks at replica 0
  std::uint64_t decode_drops = 0;
  std::uint64_t corrupt_drops = 0;
  /// Replica 0's committed block ids, in height order.
  std::vector<sftbft::types::BlockId> chain;

  // --- simulated clock (ms) ---
  /// Per in-window (block, honest replica) pair: creation -> first commit,
  /// and -> the 1.5f and 2f strength levels. A pair that never got there
  /// is +infinity.
  std::vector<double> commit_ms;
  std::vector<double> strong15_ms;
  std::vector<double> strong2f_ms;
  /// Transactions of in-window blocks committed after the first one, and
  /// the simulated seconds from the first to the last in-window commit
  /// (replica 0): the throughput sample.
  std::uint64_t rate_txns = 0;
  double rate_s = 0;
  double commit_gap_ms_max = 0;
  std::uint64_t window_rounds = 0;  ///< rounds spanned by in-window blocks

  // --- host clock ---
  double setup_s = 0;  ///< construction + start()
  double timed_s = 0;  ///< the timed phase (all slices)
  std::vector<double> slice_ms;
  std::uint64_t blocks = 0;  ///< replica 0's committed blocks, whole run
  /// Calibration kernel speed during the timed phase, and the factor that
  /// brings this repetition's host times to the reference speed.
  double calibration_ns_per_op = 0;
  double host_scale = 1;

  /// Per-layer metrics (traced repetitions only).
  std::map<std::string, double> layers;
  /// Self time per span name, ns (traced repetitions only).
  std::map<std::string, double> span_self_ns;
  /// Mean size of the frame type carrying the most bytes (probe input).
  double frame_bytes = 0;
};

/// Output checks every repetition must pass; returns the failures (empty
/// when the repetition is good).
[[nodiscard]] std::vector<std::string> check(const RepOutcome& rep);

/// Runs `scenario` on engine::Deployment, with no instrumentation beyond
/// the commit tracker and the SafetyAuditor.
[[nodiscard]] RepOutcome run_untraced(const sftbft::harness::Scenario& scenario);

/// Runs `scenario` on the traced assembly (TracedDeployment) with a
/// metrics-only Observer, and fills `layers` and `span_self_ns`.
[[nodiscard]] RepOutcome run_traced(const sftbft::harness::Scenario& scenario);

/// Construction + start() only, in seconds (set-up time samples).
[[nodiscard]] double time_setup(const sftbft::harness::Scenario& scenario);

/// Nearest-rank percentile (q in (0, 1]) of `values`; +inf propagates.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
