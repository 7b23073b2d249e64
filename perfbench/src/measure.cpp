#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "calibrate.hpp"
#include "sftbft/engine/deployment.hpp"
#include "sftbft/harness/auditor.hpp"
#include "spans.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sftbft;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double wall_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// One kernel for the whole process, so every repetition times the same
/// table.
Calibrator& calibrator() {
  static Calibrator instance;
  return instance;
}

/// First time each replica reached regular commit, the 1.5f level and the
/// 2f level of each block (commit observer feed).
class CommitTracker {
 public:
  CommitTracker(std::uint32_t n, std::uint32_t level15, std::uint32_t level2f)
      : n_(n), level15_(level15), level2f_(level2f) {}

  void on_commit(ReplicaId replica, const types::Block& block,
                 std::uint32_t strength, SimTime now) {
    PerBlock& entry = blocks_[block.id];
    if (entry.commit.empty()) {
      entry.commit.assign(n_, -1);
      entry.strong15.assign(n_, -1);
      entry.strong2f.assign(n_, -1);
    }
    if (entry.commit[replica] < 0) entry.commit[replica] = now;
    if (strength >= level15_ && entry.strong15[replica] < 0) {
      entry.strong15[replica] = now;
    }
    if (strength >= level2f_ && entry.strong2f[replica] < 0) {
      entry.strong2f[replica] = now;
    }
  }

  struct PerBlock {
    std::vector<SimTime> commit, strong15, strong2f;
  };
  [[nodiscard]] const PerBlock* find(const types::BlockId& id) const {
    const auto it = blocks_.find(id);
    return it == blocks_.end() ? nullptr : &it->second;
  }

 private:
  std::uint32_t n_, level15_, level2f_;
  std::unordered_map<types::BlockId, PerBlock> blocks_;
};

bool is_honest(const engine::DeploymentConfig& config, ReplicaId id) {
  if (id >= config.faults.size()) return true;
  const engine::FaultSpec::Kind kind = config.faults[id].kind;
  return kind == engine::FaultSpec::Kind::Honest ||
         kind == engine::FaultSpec::Kind::CrashRestart ||
         kind == engine::FaultSpec::Kind::Corrupt;
}

/// Wraps every audit feed in a `harness.audit` span.
engine::AuditTaps timed_taps(engine::AuditTaps taps, SpanRecorder& spans) {
  const SpanRecorder::Key key = spans.key("harness.audit");
  engine::AuditTaps out;
  if (taps.canonical_qc) {
    out.canonical_qc = [&spans, key, tap = std::move(taps.canonical_qc)](
                           ReplicaId id, const types::Block& block,
                           const types::QuorumCert& qc) {
      const SpanRecorder::Scope span(spans, key);
      tap(id, block, qc);
    };
  }
  if (taps.block_seen) {
    out.block_seen = [&spans, key, tap = std::move(taps.block_seen)](
                         ReplicaId id, const types::Block& block) {
      const SpanRecorder::Scope span(spans, key);
      tap(id, block);
    };
  }
  if (taps.vote_seen) {
    out.vote_seen = [&spans, key, tap = std::move(taps.vote_seen)](
                        ReplicaId id, const core::VoteSeen& vote) {
      const SpanRecorder::Scope span(spans, key);
      tap(id, vote);
    };
  }
  return out;
}

/// The shared body of both runs. `make(config, observer, taps)` builds the
/// deployment; `spans` (null when untraced) wraps the audit feeds;
/// `inspect(deployment, outcome, uncovered_ns)` reads layer data before
/// teardown, where `uncovered_ns` is the timed phase outside every span.
template <typename Make, typename Inspect>
RepOutcome run_rep(const harness::Scenario& scenario, SpanRecorder* spans,
                   Make&& make, Inspect&& inspect) {
  const engine::DeploymentConfig config = deployment_config(scenario);
  const std::uint32_t f = scenario.f();
  CommitTracker tracker(scenario.n, f * 15 / 10, 2 * f);
  harness::SafetyAuditor auditor(harness::SafetyAuditor::Config{
      .protocol = scenario.protocol, .n = scenario.n});
  engine::CommitObserver on_commit = [&tracker, &auditor](
                                         ReplicaId replica,
                                         const types::Block& block,
                                         std::uint32_t strength, SimTime now) {
    tracker.on_commit(replica, block, strength, now);
    auditor.on_commit(replica, block, strength, now);
  };
  engine::AuditTaps taps = auditor.taps();
  if (spans != nullptr) {
    taps = timed_taps(std::move(taps), *spans);
    on_commit = [spans, key = spans->key("harness.audit"),
                 inner = std::move(on_commit)](ReplicaId replica,
                                               const types::Block& block,
                                               std::uint32_t strength,
                                               SimTime now) {
      const SpanRecorder::Scope span(*spans, key);
      inner(replica, block, strength, now);
    };
  }

  RepOutcome rep;
  const std::int64_t setup_start = SpanRecorder::now_ns();
  auto deployment = make(config, std::move(on_commit), std::move(taps));
  deployment->start();
  rep.setup_s = wall_s(SpanRecorder::now_ns() - setup_start);

  const std::int64_t covered_before = spans ? spans->top_level_ns() : 0;
  std::int64_t timed_ns = 0;
  std::int64_t calibration_ns = 0;
  std::uint64_t calibration_ops = 0;
  rep.slice_ms.reserve(static_cast<std::size_t>(scenario.duration / kSlice));
  for (SimTime t = 0; t < scenario.duration; t += kSlice) {
    if (rep.slice_ms.size() % kSlicesPerCalibration == 0) {
      calibration_ns += calibrator().run_chunk();
      calibration_ops += Calibrator::kOps;
    }
    const std::int64_t start = SpanRecorder::now_ns();
    deployment->scheduler().run_for(std::min(kSlice, scenario.duration - t));
    const std::int64_t took = SpanRecorder::now_ns() - start;
    timed_ns += took;
    rep.slice_ms.push_back(static_cast<double>(took) / 1e6);
  }
  rep.timed_s = wall_s(timed_ns);
  rep.calibration_ns_per_op = static_cast<double>(calibration_ns) /
                              static_cast<double>(calibration_ops);
  rep.host_scale = host_scale(rep.calibration_ns_per_op);

  // Outputs and checks.
  const chain::Ledger& ledger = deployment->ledger(0);
  const net::MessageStats& stats = deployment->net_stats();
  rep.auditor_violations = auditor.violations().size();
  rep.decode_drops = stats.decode_drops();
  rep.corrupt_drops = stats.corrupt_drops();
  rep.blocks = ledger.committed_blocks();
  std::uint64_t frame_type_bytes = 0;
  for (const auto& [type, entry] : stats.by_type()) {
    if (entry.bytes > frame_type_bytes && entry.count > 0) {
      frame_type_bytes = entry.bytes;
      rep.frame_bytes =
          static_cast<double>(entry.bytes) / static_cast<double>(entry.count);
    }
  }

  const SimTime window_min = scenario.warmup;
  const SimTime window_max = scenario.duration - scenario.tail;
  std::vector<SimTime> commit_times;
  SimTime first_commit = -1;
  SimTime last_commit = -1;
  Round min_round = std::numeric_limits<Round>::max();
  Round max_round = 0;
  const auto to_ms = [](SimTime from, SimTime to) {
    return to < 0 ? kInf : to_millis(to - from);
  };
  for (const chain::Ledger::Entry& entry : ledger.snapshot()) {
    rep.chain.push_back(entry.block_id);
    commit_times.push_back(entry.first_committed_at);
    if (entry.created_at < window_min || entry.created_at > window_max) {
      continue;
    }
    ++rep.window_blocks;
    if (first_commit < 0) {
      first_commit = entry.first_committed_at;
    } else {
      rep.rate_txns += entry.txn_count;
    }
    last_commit = entry.first_committed_at;
    min_round = std::min(min_round, entry.round);
    max_round = std::max(max_round, entry.round);
    const CommitTracker::PerBlock* seen = tracker.find(entry.block_id);
    for (ReplicaId id = 0; id < scenario.n; ++id) {
      if (!is_honest(config, id)) continue;
      rep.commit_ms.push_back(seen ? to_ms(entry.created_at, seen->commit[id])
                                   : kInf);
      rep.strong15_ms.push_back(
          seen ? to_ms(entry.created_at, seen->strong15[id]) : kInf);
      rep.strong2f_ms.push_back(
          seen ? to_ms(entry.created_at, seen->strong2f[id]) : kInf);
    }
  }
  rep.window_rounds = rep.window_blocks > 0 ? max_round - min_round + 1 : 0;
  rep.rate_s = rep.window_blocks > 0 ? to_seconds(last_commit - first_commit)
                                     : 0;

  // Longest stretch of the window with no new commit at replica 0.
  std::sort(commit_times.begin(), commit_times.end());
  SimTime last = window_min;
  SimDuration gap = 0;
  for (const SimTime t : commit_times) {
    if (t < window_min) continue;
    if (t > window_max) break;
    gap = std::max(gap, t - last);
    last = t;
  }
  rep.commit_gap_ms_max = to_millis(std::max(gap, window_max - last));

  inspect(*deployment, rep, timed_ns - ((spans ? spans->top_level_ns() : 0) -
                                        covered_before));
  return rep;
}

double per_block(double value, const RepOutcome& rep) {
  return rep.blocks == 0 ? 0 : value / static_cast<double>(rep.blocks);
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

std::vector<std::string> check(const RepOutcome& rep) {
  std::vector<std::string> failures;
  if (rep.auditor_violations != 0) {
    failures.push_back(std::to_string(rep.auditor_violations) +
                       " SafetyAuditor violations");
  }
  if (rep.window_blocks == 0) failures.push_back("no in-window commits");
  if (rep.decode_drops != 0) {
    failures.push_back(std::to_string(rep.decode_drops) + " decode drops");
  }
  if (rep.corrupt_drops != 0) {
    failures.push_back(std::to_string(rep.corrupt_drops) + " corrupt drops");
  }
  return failures;
}

RepOutcome run_untraced(const harness::Scenario& scenario) {
  return run_rep(
      scenario, nullptr,
      [](const engine::DeploymentConfig& config, engine::CommitObserver obs,
         engine::AuditTaps taps) {
        return std::make_unique<engine::Deployment>(config, std::move(obs),
                                                    std::move(taps));
      },
      [](engine::Deployment&, RepOutcome&, std::int64_t) {});
}

RepOutcome run_traced(const harness::Scenario& scenario) {
  SpanRecorder spans;
  harness::Scenario traced = scenario;
  // Metrics only: no trace journal, no flight recorder.
  traced.obs = obs::ObsConfig{.enabled = true, .trace = false,
                              .flight_capacity = 0};
  return run_rep(
      traced, &spans,
      [&spans](const engine::DeploymentConfig& config,
               engine::CommitObserver obs, engine::AuditTaps taps) {
        return std::make_unique<TracedDeployment>(config, spans,
                                                  std::move(obs),
                                                  std::move(taps));
      },
      [&spans](TracedDeployment& d, RepOutcome& rep,
               std::int64_t uncovered_ns) {
        auto& m = rep.layers;
        const auto self_ms = [&](const char* name) {
          return static_cast<double>(spans.stats(name).self_ns) / 1e6;
        };
        const auto self_us_pct = [&](const char* name, double q) {
          std::vector<double> us;
          for (const std::int64_t ns : spans.stats(name).self_samples) {
            us.push_back(static_cast<double>(ns) / 1e3);
          }
          return us.empty() ? 0 : percentile(std::move(us), q);
        };
        for (const std::string& name : spans.names()) {
          if (spans.stats(name).count > 0) {
            rep.span_self_ns[name] =
                static_cast<double>(spans.stats(name).self_ns);
          }
        }
        rep.span_self_ns["sim.self"] = static_cast<double>(uncovered_ns);

        for (const char* type : {"proposal", "vote", "batch_push", "timeout"}) {
          m[std::string("engine.recv.") + type + "_ms_per_block"] = per_block(
              self_ms((std::string("engine.recv.") + type).c_str()), rep);
        }
        m["engine.recv.sync_ms_per_block"] = per_block(
            self_ms("engine.recv.sync_req") + self_ms("engine.recv.sync_resp"),
            rep);
        m["engine.recv.proposal_us_p50"] =
            self_us_pct("engine.recv.proposal", 0.50);
        m["engine.recv.proposal_us_p99"] =
            self_us_pct("engine.recv.proposal", 0.99);
        m["engine.recv.vote_us_p50"] = self_us_pct("engine.recv.vote", 0.50);
        m["engine.recv.vote_us_p99"] = self_us_pct("engine.recv.vote", 0.99);

        for (const char* label : {"proposal", "vote", "batch_push", "echo"}) {
          m[std::string("net.send.") + label + "_ms_per_block"] = per_block(
              self_ms((std::string("net.send.") + label).c_str()), rep);
        }
        const net::MessageStats& stats = d.net_stats();
        m["net.encoded_mb_per_block"] = per_block(
            static_cast<double>(d.transport().encoded_bytes()) / 1e6, rep);
        m["net.msgs_per_block"] =
            per_block(static_cast<double>(stats.total_count()), rep);
        m["net.bytes_per_block"] =
            per_block(static_cast<double>(stats.total_bytes()), rep);
        m["net.max_egress_mb"] =
            static_cast<double>(stats.max_egress_bytes()) / 1e6;

        const obs::Registry reg = d.observer()->merged();
        using obs::Counter;
        const auto count = [&reg](Counter c) { return reg.counter(c); };
        m["crypto.vote_verify_hit_ratio"] =
            ratio(count(Counter::kVoteVerifyHits),
                  count(Counter::kVoteVerifyHits) +
                      count(Counter::kVoteVerifyMisses));
        m["crypto.cert_verify_hit_ratio"] =
            ratio(count(Counter::kCertVerifyHits),
                  count(Counter::kCertVerifyHits) +
                      count(Counter::kCertVerifyMisses));
        m["crypto.cert_verify_misses_per_block"] = per_block(
            static_cast<double>(count(Counter::kCertVerifyMisses)), rep);

        m["sim.events_per_block"] = per_block(
            static_cast<double>(d.scheduler().events_processed()), rep);
        m["sim.self_ms_per_block"] =
            per_block(static_cast<double>(uncovered_ns) / 1e6, rep);

        std::uint64_t appends = 0, syncs = 0, written = 0;
        for (const auto& backend : d.backends()) {
          if (!backend) continue;
          appends += backend->appends();
          syncs += backend->syncs();
          written += backend->bytes_written();
        }
        m["storage.ms_per_block"] = per_block(self_ms("storage"), rep);
        m["storage.appends_per_block"] =
            per_block(static_cast<double>(appends), rep);
        m["storage.syncs_per_block"] =
            per_block(static_cast<double>(syncs), rep);
        m["storage.mb_written_per_block"] =
            per_block(static_cast<double>(written) / 1e6, rep);

        m["core.vote_quorum_ms_p50"] =
            static_cast<double>(
                reg.histogram(obs::Hist::kVoteQuorumLatencyUs).percentile(0.5)) /
            1e3;
        m["core.certify_ms_p50"] =
            static_cast<double>(
                reg.histogram(obs::Hist::kCertifyLatencyUs).percentile(0.5)) /
            1e3;
        m["core.timeouts_per_block"] = per_block(
            static_cast<double>(count(Counter::kTimeoutsLocal)), rep);
        m["core.strong_commits_per_block"] = per_block(
            static_cast<double>(count(Counter::kStrongCommits)), rep);

        const std::uint64_t rejected = count(Counter::kAdmissionDuplicate) +
                                       count(Counter::kAdmissionRateLimited) +
                                       count(Counter::kAdmissionBackpressure);
        m["dissem.batches_per_block"] = per_block(
            static_cast<double>(count(Counter::kBatchesPacked)), rep);
        m["dissem.pull_rounds_per_block"] = per_block(
            static_cast<double>(count(Counter::kBatchPullRounds)), rep);
        m["dissem.admission_reject_ratio"] =
            ratio(rejected, rejected + count(Counter::kAdmitted));

        const adversary::Coalition* coalition = d.coalition();
        m["adversary.equivocations"] =
            coalition ? static_cast<double>(coalition->stats().equivocations)
                      : 0;
        m["adversary.forged_votes"] =
            coalition ? static_cast<double>(coalition->stats().forged_votes)
                      : 0;

        m["harness.audit_ms_per_block"] =
            per_block(self_ms("harness.audit"), rep);
      });
}

double time_setup(const harness::Scenario& scenario) {
  const engine::DeploymentConfig config = deployment_config(scenario);
  harness::SafetyAuditor auditor(harness::SafetyAuditor::Config{
      .protocol = scenario.protocol, .n = scenario.n});
  const std::int64_t start = SpanRecorder::now_ns();
  engine::Deployment deployment(
      config,
      [&auditor](ReplicaId replica, const types::Block& block,
                 std::uint32_t strength, SimTime now) {
        auditor.on_commit(replica, block, strength, now);
      },
      auditor.taps());
  deployment.start();
  return wall_s(SpanRecorder::now_ns() - start);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

}  // namespace perfbench
