// Host-time spans recorded around the calls the benchmark makes into each
// layer. Spans nest (a self-send delivers inside `send`, a WAL append runs
// inside a vote handler), so each span's self time is its duration minus
// the durations of the spans opened inside it. Totals are kept per span
// name, in memory, and read out after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using Key = std::uint32_t;

  struct Stats {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;  ///< inclusive of child spans
    std::int64_t self_ns = 0;   ///< total_ns minus child spans
    /// Self time of each call, in call order.
    std::vector<std::int64_t> self_samples;
  };

  /// Interns `name` (idempotent); keys index the per-name totals.
  Key key(std::string_view name);

  void open(Key key, std::int64_t now_ns);
  /// Closes the innermost open span. Precondition: one is open.
  void close(std::int64_t now_ns);

  /// Totals of span `name` (empty stats if never opened).
  [[nodiscard]] const Stats& stats(std::string_view name) const;
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  /// Summed duration of outermost spans: the part of the timed phase the
  /// spans cover. The rest is the scheduler and timer callbacks.
  [[nodiscard]] std::int64_t top_level_ns() const { return top_level_ns_; }
  [[nodiscard]] std::size_t depth() const { return stack_.size(); }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span for the lifetime of the scope (closed on unwind too).
  class Scope {
   public:
    Scope(SpanRecorder& spans, Key key) : spans_(spans) {
      spans_.open(key, now_ns());
    }
    ~Scope() { spans_.close(now_ns()); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& spans_;
  };

 private:
  struct Open {
    Key key;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  std::unordered_map<std::string, Key> keys_;
  std::vector<std::string> names_;
  std::vector<Stats> stats_;
  std::vector<Open> stack_;
  std::int64_t top_level_ns_ = 0;
};

}  // namespace perfbench
