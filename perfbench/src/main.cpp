// perfbench: runs one named workload through engine::Deployment for at
// least --seconds of wall time and prints one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics (untraced repetitions);
// --trace 1 reports the per-layer metrics from pairs of an untraced and a
// traced repetition of the same seed, whose committed chains must match.
// Every repetition must pass the output checks; a failed check prints the
// reason to stderr and exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "metric_table.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::kEndToEnd;
using perfbench::kPerLayer;
using perfbench::Metric;
using perfbench::RepOutcome;

/// Repetitions whose simulated-clock metrics are reported. Fixed, so those
/// metrics depend on the seed alone; host metrics use every repetition.
constexpr std::uint32_t kSimReps = 4;
/// Extra construction + start() samples for setup_s: at least this many,
/// and for at least kSetupSeconds of wall time.
constexpr std::uint32_t kSetupSamples = 10;
constexpr double kSetupSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage(argv[0]);
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0)) usage(argv[0]);
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage(argv[0]);
      }
      args.trace = value[0] - '0';
    } else {
      usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || !have_seed ||
      args.seconds <= 0 || args.trace < 0) {
    usage(argv[0]);
  }
  return args;
}

std::string number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

/// Prints the result line; every metric of `table` must be in `values`.
template <std::size_t N>
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metric (&table)[N],
                  const std::map<std::string, double>& values) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : table) {
    const auto it = values.find(metric.name);
    if (it == values.end()) continue;
    line += std::string(first ? "" : ", ") + "\"" + metric.name +
            "\": {\"value\": " + number(it->second) + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Prints why a repetition failed; returns true when it passed.
bool report_checks(const char* what, std::uint32_t rep,
                   const std::vector<std::string>& failures) {
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "[perfbench] %s repetition %u failed: %s\n", what,
                 rep, failure.c_str());
  }
  return failures.empty();
}

double elapsed_s(std::int64_t since_ns) {
  return static_cast<double>(perfbench::SpanRecorder::now_ns() - since_ns) /
         1e9;
}

/// Wall ms of the timed phase per committed block, at the reference speed.
double scaled_ms_per_block(const RepOutcome& rep) {
  return rep.timed_s * 1e3 * rep.host_scale /
         static_cast<double>(std::max<std::uint64_t>(1, rep.blocks));
}

std::map<std::string, double> end_to_end(
    const std::vector<RepOutcome>& reps,
    const std::vector<double>& setup_samples) {
  // Latency percentiles are taken per repetition and averaged: Streamlet
  // commits on epoch boundaries, so one repetition's median sits on one
  // epoch or the next, and a percentile of the pooled pairs would jump
  // between them with the seed instead of moving with the share of
  // repetitions on each.
  double commit50 = 0, commit99 = 0, strong15 = 0, strong2f = 0;
  std::vector<double> gaps;
  std::uint64_t txns = 0, blocks = 0, rounds = 0;
  double rate_s = 0;
  for (std::uint32_t i = 0; i < kSimReps; ++i) {
    const RepOutcome& rep = reps[i];
    commit50 += perfbench::percentile(rep.commit_ms, 0.50) / kSimReps;
    commit99 += perfbench::percentile(rep.commit_ms, 0.99) / kSimReps;
    strong15 += perfbench::percentile(rep.strong15_ms, 0.50) / kSimReps;
    strong2f += perfbench::percentile(rep.strong2f_ms, 0.50) / kSimReps;
    gaps.push_back(rep.commit_gap_ms_max);
    txns += rep.rate_txns;
    blocks += rep.window_blocks;
    rounds += rep.window_rounds;
    rate_s += rep.rate_s;
  }
  // Host times are brought to the reference machine speed by each
  // repetition's calibration (calibrate.hpp). What the calibration misses,
  // brief interference from other work on the machine, only ever slows a
  // repetition down, so the host metrics use the faster half of the
  // repetitions (by scaled ms per block): the median of their ms per block,
  // and their slices pooled (at least two repetitions, so p99 has at least
  // 12 slices beyond it).
  std::vector<const RepOutcome*> fastest;
  for (const RepOutcome& rep : reps) fastest.push_back(&rep);
  std::sort(fastest.begin(), fastest.end(),
            [](const RepOutcome* a, const RepOutcome* b) {
              return scaled_ms_per_block(*a) < scaled_ms_per_block(*b);
            });
  fastest.resize((fastest.size() + 1) / 2);
  std::vector<double> host_ms, slices, scales;
  for (const RepOutcome& rep : reps) scales.push_back(rep.host_scale);
  for (const RepOutcome* rep : fastest) {
    host_ms.push_back(scaled_ms_per_block(*rep));
    for (const double ms : rep->slice_ms) {
      slices.push_back(ms * rep->host_scale);
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"commit_p50_ms", commit50},
      {"commit_p99_ms", commit99},
      {"strong_1.5f_p50_ms", strong15},
      {"strong_2f_p50_ms", strong2f},
      {"txn_per_sim_s", static_cast<double>(txns) / rate_s},
      {"commit_gap_ms_max", perfbench::median(gaps)},
      {"rounds_committed_ratio",
       static_cast<double>(blocks) / static_cast<double>(rounds)},
      {"host_ms_per_block", perfbench::median(host_ms)},
      {"slice_ms_p50", perfbench::percentile(slices, 0.50)},
      {"slice_ms_p99", perfbench::percentile(slices, 0.99)},
      // At the reference speed too. A set-up takes milliseconds, so
      // interference shows in it as a slow tail: on inline, the median of a
      // second of set-ups moved by 20% between runs, the 10th percentile
      // by 2%.
      {"setup_s", perfbench::percentile(setup_samples, 0.10) *
                      perfbench::median(scales)},
      // ru_maxrss is in KiB on Linux.
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0},
  };
}

/// Prints each span's share of the traced timed phase, largest first.
void print_breakdown(const RepOutcome& traced) {
  std::vector<std::pair<double, std::string>> rows;
  double total = 0;
  for (const auto& [name, ns] : traced.span_self_ns) {
    rows.emplace_back(ns, name);
    total += ns;
  }
  std::sort(rows.rbegin(), rows.rend());
  std::fprintf(stderr, "[perfbench] self time by span (last traced run):\n");
  for (const auto& [ns, name] : rows) {
    std::fprintf(stderr, "  %-28s %9.1f ms  %5.1f%%\n", name.c_str(), ns / 1e6,
                 total > 0 ? 100.0 * ns / total : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const perfbench::Workload* workload = perfbench::find_workload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "[perfbench] unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const auto scenario_for = [&](std::uint32_t rep) {
    return workload->make(perfbench::rep_seed(args.seed, rep));
  };
  const std::int64_t start = perfbench::SpanRecorder::now_ns();
  std::uint32_t attempted = 0, failed = 0;

  if (args.trace == 0) {
    std::vector<RepOutcome> reps;
    std::vector<double> setups;
    while (attempted < kSimReps || elapsed_s(start) < args.seconds) {
      reps.push_back(perfbench::run_untraced(scenario_for(attempted)));
      setups.push_back(reps.back().setup_s);
      const RepOutcome& rep = reps.back();
      std::fprintf(stderr,
                   "[perfbench] repetition %u: %llu blocks, %.3f s timed, "
                   "calibration %.1f ns/op (scale %.3f), %.3f ms per block "
                   "scaled, 2f-strong p50 %.1f ms\n",
                   attempted, static_cast<unsigned long long>(rep.blocks),
                   rep.timed_s, rep.calibration_ns_per_op, rep.host_scale,
                   scaled_ms_per_block(rep),
                   perfbench::percentile(rep.strong2f_ms, 0.50));
      if (!report_checks("untraced", attempted,
                         perfbench::check(reps.back()))) {
        ++failed;
      }
      ++attempted;
    }
    const std::int64_t setups_start = perfbench::SpanRecorder::now_ns();
    for (std::uint32_t i = 0;
         i < kSetupSamples || elapsed_s(setups_start) < kSetupSeconds; ++i) {
      setups.push_back(perfbench::time_setup(scenario_for(0)));
    }
    std::map<std::string, double> metrics;
    if (failed == 0) metrics = end_to_end(reps, setups);
    // A latency level that most pairs never reach reads as infinity.
    bool finite = true;
    for (const auto& [name, value] : metrics) {
      if (!std::isfinite(value)) {
        std::fprintf(stderr, "[perfbench] %s is not finite\n", name.c_str());
        finite = false;
      }
    }
    const bool correct = failed == 0 && finite;
    print_result(correct, attempted, failed, kEndToEnd, metrics);
    return correct ? 0 : 1;
  }

  std::vector<std::map<std::string, double>> samples;
  RepOutcome last;
  while (attempted == 0 || elapsed_s(start) < args.seconds) {
    const auto scenario = scenario_for(attempted);
    const RepOutcome plain = perfbench::run_untraced(scenario);
    RepOutcome traced = perfbench::run_traced(scenario);
    bool ok = report_checks("untraced", attempted, perfbench::check(plain));
    ok = report_checks("traced", attempted, perfbench::check(traced)) && ok;
    if (traced.chain != plain.chain) {
      std::fprintf(stderr,
                   "[perfbench] repetition %u: the traced assembly committed "
                   "a different chain (%zu vs %zu blocks)\n",
                   attempted, traced.chain.size(), plain.chain.size());
      ok = false;
    }
    if (!ok) ++failed;
    traced.layers["trace.overhead_ratio"] = traced.timed_s / plain.timed_s;
    samples.push_back(traced.layers);
    last = std::move(traced);
    ++attempted;
  }
  std::map<std::string, double> metrics;
  if (failed == 0) {
    for (const auto& [name, value] : samples.front()) {
      std::vector<double> values;
      for (const auto& sample : samples) values.push_back(sample.at(name));
      metrics[name] = perfbench::median(std::move(values));
    }
    const auto scenario = scenario_for(0);
    for (const auto& [name, value] :
         perfbench::run_probes(last.frame_bytes, scenario.n,
                               scenario.txn_size_bytes)) {
      metrics[name] = value;
    }
    print_breakdown(last);
  }
  print_result(failed == 0, attempted, failed, kPerLayer, metrics);
  return failed == 0 ? 0 : 1;
}
