#include "spans.hpp"

namespace perfbench {

SpanRecorder::Key SpanRecorder::key(std::string_view name) {
  const auto [it, inserted] =
      keys_.try_emplace(std::string(name), static_cast<Key>(names_.size()));
  if (inserted) {
    names_.emplace_back(name);
    stats_.emplace_back();
  }
  return it->second;
}

void SpanRecorder::open(Key key, std::int64_t now_ns) {
  stack_.push_back(Open{key, now_ns, 0});
}

void SpanRecorder::close(std::int64_t now_ns) {
  const Open span = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = now_ns - span.start_ns;
  const std::int64_t self = duration - span.child_ns;
  Stats& stats = stats_[span.key];
  stats.count += 1;
  stats.total_ns += duration;
  stats.self_ns += self;
  stats.self_samples.push_back(self);
  if (stack_.empty()) {
    top_level_ns_ += duration;
  } else {
    stack_.back().child_ns += duration;
  }
}

const SpanRecorder::Stats& SpanRecorder::stats(std::string_view name) const {
  static const Stats kEmpty;
  const auto it = keys_.find(std::string(name));
  return it == keys_.end() ? kEmpty : stats_[it->second];
}

}  // namespace perfbench
