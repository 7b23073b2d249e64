// Tests of the benchmark itself: span self-time arithmetic, the name rule
// for workloads and metrics, host-time calibration, and parity of the traced
// assembly with engine::Deployment for each engine and each fault kind the
// workloads use.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "calibrate.hpp"
#include "measure.hpp"
#include "metric_table.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace sftbft;

/// The benchmark's name rule for workloads and metrics: starts with a
/// letter or digit, at most 64 of [A-Za-z0-9_.-].
bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

TEST(Spans, SelfTimeSubtractsNestedChildren) {
  SpanRecorder spans;
  const auto send = spans.key("net.send.vote");
  const auto recv = spans.key("engine.recv.vote");
  const auto storage = spans.key("storage");
  // send [0, 100) delivers to itself: recv [10, 60) appends to the WAL:
  // storage [20, 30). Then a timer's storage call [150, 155) and a
  // delivery [200, 250) run at top level.
  spans.open(send, 0);
  spans.open(recv, 10);
  spans.open(storage, 20);
  spans.close(30);
  spans.close(60);
  spans.close(100);
  spans.open(storage, 150);
  spans.close(155);
  spans.open(recv, 200);
  spans.close(250);
  EXPECT_EQ(spans.depth(), 0u);

  EXPECT_EQ(spans.stats("net.send.vote").self_ns, 50);
  EXPECT_EQ(spans.stats("net.send.vote").total_ns, 100);
  EXPECT_EQ(spans.stats("engine.recv.vote").self_ns, 40 + 50);
  EXPECT_EQ(spans.stats("engine.recv.vote").total_ns, 50 + 50);
  EXPECT_EQ(spans.stats("engine.recv.vote").count, 2u);
  EXPECT_EQ(spans.stats("engine.recv.vote").self_samples,
            (std::vector<std::int64_t>{40, 50}));
  EXPECT_EQ(spans.stats("storage").self_ns, 10 + 5);
  // Only outermost spans count toward the covered part of the timed phase.
  EXPECT_EQ(spans.top_level_ns(), 100 + 5 + 50);
  // Self times partition the covered time exactly.
  std::int64_t self_sum = 0;
  for (const std::string& name : spans.names()) {
    self_sum += spans.stats(name).self_ns;
  }
  EXPECT_EQ(self_sum, spans.top_level_ns());
  EXPECT_EQ(spans.stats("never.opened").count, 0u);
}

TEST(Spans, KeysAreInterned) {
  SpanRecorder spans;
  EXPECT_EQ(spans.key("a"), spans.key("a"));
  EXPECT_NE(spans.key("a"), spans.key("b"));
  EXPECT_EQ(spans.names().size(), 2u);
}

TEST(Names, RuleAcceptsAndRejects) {
  EXPECT_TRUE(valid_name("strong_1.5f_p50_ms"));
  EXPECT_TRUE(valid_name("9lives"));
  EXPECT_TRUE(valid_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_name(""));
  EXPECT_FALSE(valid_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_name("_leading"));
  EXPECT_FALSE(valid_name(".leading"));
  EXPECT_FALSE(valid_name("has space"));
  EXPECT_FALSE(valid_name("slash/name"));
}

std::string spec_text() {
  std::ifstream in(PERFBENCH_SPEC);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Names, WorkloadsAndMetricsFollowTheRuleAndTheSpec) {
  const std::string spec = spec_text();
  ASSERT_FALSE(spec.empty()) << "cannot read " << PERFBENCH_SPEC;
  const auto declared = [&spec](const std::string& name) {
    return spec.find("\"name\": \"" + name + "\"") != std::string::npos;
  };
  for (const Workload& workload : workloads()) {
    EXPECT_TRUE(valid_name(workload.name)) << workload.name;
    EXPECT_TRUE(declared(workload.name)) << workload.name;
    EXPECT_EQ(find_workload(workload.name), &workload);
  }
  for (const Metric& metric : kEndToEnd) {
    EXPECT_TRUE(valid_name(metric.name)) << metric.name;
    EXPECT_TRUE(declared(metric.name)) << metric.name;
  }
  for (const Metric& metric : kPerLayer) {
    EXPECT_TRUE(valid_name(metric.name)) << metric.name;
    EXPECT_TRUE(declared(metric.name)) << metric.name;
  }
  EXPECT_EQ(find_workload("no-such-workload"), nullptr);
}

TEST(Workloads, ConfigsAreValidAndSeeded) {
  for (const Workload& workload : workloads()) {
    const harness::Scenario scenario = workload.make(7);
    EXPECT_EQ(scenario.seed, 7u);
    EXPECT_TRUE(scenario.verify_signatures);
    EXPECT_TRUE(scenario.audit);
    EXPECT_GE(scenario.duration / kSlice, 600) << workload.name;
    const engine::DeploymentConfig config = deployment_config(scenario);
    EXPECT_NO_THROW(engine::validate_faults(config.faults, config.n));
  }
  EXPECT_EQ(rep_seed(5, 0), rep_seed(5, 0));
  EXPECT_NE(rep_seed(5, 0), rep_seed(5, 1));
  EXPECT_NE(rep_seed(5, 0), rep_seed(6, 0));
}

TEST(Checks, FlagEveryFailedOutput) {
  RepOutcome good;
  good.window_blocks = 3;
  EXPECT_TRUE(check(good).empty());
  RepOutcome bad = good;
  bad.window_blocks = 0;
  bad.auditor_violations = 1;
  bad.decode_drops = 2;
  bad.corrupt_drops = 3;
  EXPECT_EQ(check(bad).size(), 4u);
}

TEST(Percentile, NearestRankWithInfinity) {
  EXPECT_EQ(percentile({3, 1, 2, 4}, 0.5), 2);
  EXPECT_EQ(percentile({3, 1, 2, 4}, 0.99), 4);
  EXPECT_EQ(percentile({1, 2, std::numeric_limits<double>::infinity()}, 0.5),
            2);
  EXPECT_TRUE(std::isinf(
      percentile({1, std::numeric_limits<double>::infinity()}, 0.99)));
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Calibration, ScalesToTheReferenceSpeed) {
  EXPECT_DOUBLE_EQ(host_scale(kReferenceNsPerOp), 1.0);
  // A kernel running at half speed halves the reported host times.
  EXPECT_DOUBLE_EQ(host_scale(2 * kReferenceNsPerOp), 0.5);
  EXPECT_DOUBLE_EQ(host_scale(0), 1.0);
  Calibrator calibrator;
  EXPECT_GT(calibrator.run_chunk(), 0);
  EXPECT_GT(calibrator.run_chunk(), 0);
}

enum class Fault { None, CrashRestart, Byzantine };

harness::Scenario small(engine::Protocol protocol, Fault fault) {
  harness::Scenario s;
  s.protocol = protocol;
  s.n = 4;
  s.topo = harness::Scenario::Topo::Symmetric3;
  s.jitter = millis(40);
  s.jitter_frac = 0.25;
  s.txn_size_bytes = 100;
  s.mean_interarrival = millis(10);
  s.streamlet_delta_bound = millis(300);
  s.duration = seconds(12);
  s.warmup = seconds(1);
  s.tail = seconds(3);
  s.audit = true;
  s.seed = 99;
  if (protocol == engine::Protocol::HotStuff) {
    s.dissemination = true;
    s.dissem.batch_max_txns = 50;
    s.dissem.batch_interval = millis(200);
    s.dissem.clients = 8;
    s.dissem.client_rate_limit = 5;
  }
  switch (fault) {
    case Fault::None:
      break;
    case Fault::CrashRestart:
      s.persist_all = true;
      s.crash_restart_count = 1;
      s.crash_restart_first = seconds(3);
      s.crash_restart_downtime = seconds(2);
      break;
    case Fault::Byzantine:
      s.byzantine_count = 1;
      s.byzantine.strategies = {adversary::Strategy::EquivocatingLeader,
                                adversary::Strategy::AmnesiaVoter};
      break;
  }
  return s;
}

std::string parity_name(
    const ::testing::TestParamInfo<std::tuple<engine::Protocol, Fault>>& info) {
  const char* const faults[] = {"honest", "crash_restart", "byzantine"};
  return std::string(engine::protocol_name(std::get<0>(info.param))) + "_" +
         faults[static_cast<int>(std::get<1>(info.param))];
}

class Parity
    : public ::testing::TestWithParam<std::tuple<engine::Protocol, Fault>> {};

TEST_P(Parity, TracedAssemblyCommitsTheDeploymentChain) {
  const auto [protocol, fault] = GetParam();
  const harness::Scenario scenario = small(protocol, fault);
  const RepOutcome plain = run_untraced(scenario);
  const RepOutcome traced = run_traced(scenario);
  EXPECT_TRUE(check(plain).empty());
  EXPECT_TRUE(check(traced).empty());
  ASSERT_GT(plain.chain.size(), 5u);
  EXPECT_EQ(traced.chain, plain.chain);
  EXPECT_EQ(traced.commit_ms, plain.commit_ms);
  EXPECT_EQ(traced.strong2f_ms, plain.strong2f_ms);
  EXPECT_EQ(traced.commit_gap_ms_max, plain.commit_gap_ms_max);
  // The traced boundaries saw the traffic and, with a store, the WAL.
  EXPECT_GT(traced.span_self_ns.count("engine.recv.vote"), 0u);
  EXPECT_GT(traced.span_self_ns.count("net.send.proposal"), 0u);
  EXPECT_EQ(traced.span_self_ns.count("storage") > 0,
            fault == Fault::CrashRestart);
  if (fault == Fault::Byzantine) {
    EXPECT_GT(traced.layers.at("adversary.forged_votes"), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndFaults, Parity,
    ::testing::Combine(::testing::Values(engine::Protocol::DiemBft,
                                         engine::Protocol::HotStuff,
                                         engine::Protocol::Streamlet),
                       ::testing::Values(Fault::None, Fault::CrashRestart,
                                         Fault::Byzantine)),
    parity_name);

}  // namespace
}  // namespace perfbench
