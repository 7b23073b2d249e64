// Machine-speed calibration for the host metrics. The benchmark runs on
// shared machines whose speed drifts by 20% or more for minutes at a time
// (neighbours contending for caches and memory), which no amount of
// repetition inside one run averages out. So the timed phase is interleaved
// with a fixed kernel that is owned by the benchmark, not by the library:
// hash-map finds, inserts and erases on a warm 16K-key table, whose speed
// follows the machine's the way the workloads' does. Every chunk rebuilds
// the table in the same private buffer and replays the same operations, so
// neither the workload's heap nor the kernel's own history changes the
// work measured. Host times are then reported at the reference speed (see
// host_scale), so a change to the library moves them and a slow machine
// minute does not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace perfbench {

class Calibrator {
 public:
  /// Kernel operations per timed chunk (about 1 ms).
  static constexpr std::uint32_t kOps = 12000;

  Calibrator();

  /// Rebuilds the table (untimed, which also warms the caches the workload
  /// left in another state), then times kOps operations on it; returns the
  /// timed nanoseconds.
  std::int64_t run_chunk();

 private:
  std::unique_ptr<std::byte[]> arena_;
  std::uint64_t sink_ = 0;
};

/// Kernel nanoseconds per operation on the reference machine (a shared
/// 4-vCPU x86-64 VM, the one README.md's figures come from).
inline constexpr double kReferenceNsPerOp = 28.0;

/// Factor that brings a host time measured while the kernel ran at
/// `ns_per_op` to the reference speed: reference / measured.
[[nodiscard]] double host_scale(double ns_per_op);

}  // namespace perfbench
