// The metrics the benchmark reports, with their units, in BENCHMARK.json
// order: end-to-end metrics for --trace 0, per-layer metrics for --trace 1.
#pragma once

namespace perfbench {

struct Metric {
  const char* name;
  const char* unit;
};

inline constexpr Metric kEndToEnd[] = {
    {"commit_p50_ms", "ms"},
    {"commit_p99_ms", "ms"},
    {"strong_1.5f_p50_ms", "ms"},
    {"strong_2f_p50_ms", "ms"},
    {"txn_per_sim_s", "1/s"},
    {"commit_gap_ms_max", "ms"},
    {"rounds_committed_ratio", "ratio"},
    {"host_ms_per_block", "ms"},
    {"slice_ms_p50", "ms"},
    {"slice_ms_p99", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

inline constexpr Metric kPerLayer[] = {
    {"engine.recv.proposal_ms_per_block", "ms"},
    {"engine.recv.vote_ms_per_block", "ms"},
    {"engine.recv.batch_push_ms_per_block", "ms"},
    {"engine.recv.timeout_ms_per_block", "ms"},
    {"engine.recv.sync_ms_per_block", "ms"},
    {"engine.recv.proposal_us_p50", "us"},
    {"engine.recv.proposal_us_p99", "us"},
    {"engine.recv.vote_us_p50", "us"},
    {"engine.recv.vote_us_p99", "us"},
    {"net.send.proposal_ms_per_block", "ms"},
    {"net.send.vote_ms_per_block", "ms"},
    {"net.send.batch_push_ms_per_block", "ms"},
    {"net.send.echo_ms_per_block", "ms"},
    {"net.encoded_mb_per_block", "MB"},
    {"net.msgs_per_block", "count"},
    {"net.bytes_per_block", "B"},
    {"net.max_egress_mb", "MB"},
    {"common.crc32_mb_s", "MB/s"},
    {"common.codec_mb_s", "MB/s"},
    {"crypto.sha256_mb_s", "MB/s"},
    {"crypto.hmac_ns", "ns"},
    {"crypto.qc_verify_us", "us"},
    {"crypto.vote_verify_hit_ratio", "ratio"},
    {"crypto.cert_verify_hit_ratio", "ratio"},
    {"crypto.cert_verify_misses_per_block", "count"},
    {"sim.events_per_block", "count"},
    {"sim.self_ms_per_block", "ms"},
    {"sim.dispatch_ns", "ns"},
    {"storage.ms_per_block", "ms"},
    {"storage.appends_per_block", "count"},
    {"storage.syncs_per_block", "count"},
    {"storage.mb_written_per_block", "MB"},
    {"core.vote_quorum_ms_p50", "ms"},
    {"core.certify_ms_p50", "ms"},
    {"core.timeouts_per_block", "count"},
    {"core.strong_commits_per_block", "count"},
    {"dissem.batches_per_block", "count"},
    {"dissem.pull_rounds_per_block", "count"},
    {"dissem.admission_reject_ratio", "ratio"},
    {"adversary.equivocations", "count"},
    {"adversary.forged_votes", "count"},
    {"harness.audit_ms_per_block", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

}  // namespace perfbench
