#include "calibrate.hpp"

#include <memory_resource>
#include <unordered_map>

#include "spans.hpp"

namespace perfbench {

namespace {

/// Keys are drawn from [0, kKeys): the table holds about half of them, so
/// finds hit and miss alike and the table keeps a steady size.
constexpr std::uint64_t kKeys = 1u << 14;
/// Room for the buckets and every node one chunk allocates (erased nodes
/// are not reused), with margin.
constexpr std::size_t kArenaBytes = 4u << 20;

/// xorshift64 from a fixed start: every chunk replays the same sequence.
struct Sequence {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

}  // namespace

Calibrator::Calibrator() : arena_(new std::byte[kArenaBytes]) {}

std::int64_t Calibrator::run_chunk() {
  std::pmr::monotonic_buffer_resource memory(
      arena_.get(), kArenaBytes, std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> table(&memory);
  table.reserve(kKeys);
  Sequence sequence;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const std::uint64_t r = sequence.next();
    if (r & 1) table.emplace(key, r);
  }
  std::uint64_t sum = 0;
  const std::int64_t start = SpanRecorder::now_ns();
  for (std::uint32_t i = 0; i < kOps; ++i) {
    const std::uint64_t r = sequence.next();
    const auto it = table.find(r % kKeys);
    if (it == table.end()) {
      table.emplace(r % kKeys, r);
    } else {
      sum += it->second;
      table.erase(it);
    }
  }
  const std::int64_t took = SpanRecorder::now_ns() - start;
  sink_ += sum;
  return took;
}

double host_scale(double ns_per_op) {
  return ns_per_op > 0 ? kReferenceNsPerOp / ns_per_op : 1.0;
}

}  // namespace perfbench
