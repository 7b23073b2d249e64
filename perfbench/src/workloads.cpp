#include "workloads.hpp"

namespace perfbench {

using namespace sftbft;
using harness::Scenario;

namespace {

/// Seed of the replica-heterogeneity draw (see deployment_config).
constexpr std::uint64_t kClusterSeed = 42;

/// The paper's geo calibration shared by every workload: three symmetric
/// regions at δ = 100 ms, 40 ms + 25% jitter, two-tier replica
/// heterogeneity, 80 ms leader processing, ~450 KB inline blocks, Poisson
/// clients at 100 txn/s per replica (pools stay saturated, the paper's
/// "sufficiently many transactions"), real signature checks and the
/// SafetyAuditor.
Scenario geo(std::uint64_t seed) {
  Scenario s;
  s.topo = Scenario::Topo::Symmetric3;
  s.delta = millis(100);
  s.jitter = millis(40);
  s.jitter_frac = 0.25;
  s.hetero_fast_max = millis(35);
  s.hetero_medium_fraction = 0.25;
  s.hetero_medium_lo = millis(40);
  s.hetero_medium_hi = millis(60);
  s.leader_processing = millis(80);
  s.max_batch = 100;
  s.txn_size_bytes = 4500;
  s.mean_interarrival = millis(10);
  s.verify_signatures = true;
  s.audit = true;
  s.seed = seed;
  return s;
}

/// The paper's own experiment: SFT-DiemBFT at n = 100, inline blocks.
Scenario inline_diembft_n100(std::uint64_t seed) {
  Scenario s = geo(seed);
  s.name = "inline-diembft-n100";
  s.protocol = engine::Protocol::DiemBft;
  s.n = 100;
  s.duration = seconds(60);
  s.warmup = seconds(5);
  s.tail = seconds(10);
  return s;
}

/// SFT-HotStuff with the dissemination plane: ~1.1 MB batches once a
/// second, admission rate-limited to 50 clients x 5 txn/s per replica.
Scenario digest_hotstuff_n31(std::uint64_t seed) {
  Scenario s = geo(seed);
  s.name = "digest-hotstuff-n31";
  s.protocol = engine::Protocol::HotStuff;
  s.n = 31;
  s.dissemination = true;
  s.dissem.batch_max_txns = 250;
  s.dissem.batch_interval = seconds(1);
  s.dissem.clients = 50;
  s.dissem.client_rate_limit = 5;
  s.duration = seconds(30);
  s.warmup = seconds(4);
  s.tail = seconds(6);
  return s;
}

/// SFT-Streamlet with the O(n^3) echo under churn: every replica persists,
/// three crash and restart (10 s, then 5 s down, staggered 10 s), and three
/// Byzantine replicas equivocate as leaders and forge vote histories. The
/// Δ-bound covers the delay model's largest one-way delay (README.md).
Scenario churn_streamlet_n31(std::uint64_t seed) {
  Scenario s = geo(seed);
  s.name = "churn-streamlet-n31";
  s.protocol = engine::Protocol::Streamlet;
  s.n = 31;
  s.streamlet_delta_bound = millis(400);
  s.streamlet_echo = true;
  s.txn_size_bytes = 100;
  s.persist_all = true;
  s.crash_restart_count = 3;
  s.crash_restart_first = seconds(10);
  s.crash_restart_downtime = seconds(5);
  s.crash_restart_stagger = seconds(10);
  s.byzantine_count = 3;
  s.byzantine.strategies = {adversary::Strategy::EquivocatingLeader,
                            adversary::Strategy::AmnesiaVoter};
  s.duration = seconds(60);
  s.warmup = seconds(5);
  s.tail = seconds(10);
  return s;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"inline-diembft-n100", inline_diembft_n100},
      {"digest-hotstuff-n31", digest_hotstuff_n31},
      {"churn-streamlet-n31", churn_streamlet_n31},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

sftbft::engine::DeploymentConfig deployment_config(
    const harness::Scenario& scenario) {
  engine::DeploymentConfig config = scenario.to_deployment_config();
  harness::Scenario cluster = scenario;
  cluster.seed = kClusterSeed;
  config.topology = cluster.build_topology();
  return config;
}

std::uint64_t rep_seed(std::uint64_t seed, std::uint32_t rep) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (rep + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
