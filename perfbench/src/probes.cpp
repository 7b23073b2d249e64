#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "measure.hpp"
#include "sftbft/common/codec.hpp"
#include "sftbft/common/crc32.hpp"
#include "sftbft/crypto/sha256.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/sim/scheduler.hpp"
#include "sftbft/types/quorum_cert.hpp"
#include "sftbft/types/transaction.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace sftbft;

namespace {

/// Consumes probe results so the timed calls cannot be optimised away.
volatile std::uint64_t g_sink = 0;

/// Median over five batches of `iters` calls, in ns per call.
double ns_per_call(std::uint64_t iters, const std::function<void()>& call) {
  std::vector<double> batches;
  for (int batch = 0; batch < 5; ++batch) {
    const std::int64_t start = SpanRecorder::now_ns();
    for (std::uint64_t i = 0; i < iters; ++i) call();
    batches.push_back(static_cast<double>(SpanRecorder::now_ns() - start) /
                      static_cast<double>(iters));
  }
  return median(std::move(batches));
}

double mb_per_s(std::size_t bytes, double ns) {
  return ns <= 0 ? 0 : static_cast<double>(bytes) / ns * 1e3;
}

}  // namespace

std::map<std::string, double> run_probes(double frame_bytes, std::uint32_t n,
                                         std::uint32_t txn_size) {
  std::map<std::string, double> out;
  const auto frame = static_cast<std::size_t>(std::max(64.0, frame_bytes));
  Bytes buffer(frame);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  // About 8 MB of input per batch, at least 4 calls.
  const std::uint64_t iters =
      std::max<std::uint64_t>(4, (8u << 20) / std::max<std::size_t>(1, frame));

  out["common.crc32_mb_s"] = mb_per_s(frame, ns_per_call(iters, [&] {
    g_sink = g_sink + crc32(BytesView(buffer));
  }));
  out["crypto.sha256_mb_s"] = mb_per_s(frame, ns_per_call(iters, [&] {
    g_sink = g_sink + crypto::Sha256::hash(BytesView(buffer)).bytes[0];
  }));

  // An inline payload whose encoding is about one frame.
  types::Payload payload;
  const std::size_t per_txn = types::Transaction::kRecordBytes + txn_size;
  const std::size_t txns = std::max<std::size_t>(1, frame / per_txn);
  for (std::size_t i = 0; i < txns; ++i) {
    payload.txns.push_back(types::Transaction{
        .id = i + 1, .submitted_at = 0, .size_bytes = txn_size});
  }
  std::size_t encoded = 0;
  {
    Encoder enc;
    payload.encode(enc);
    encoded = enc.data().size();
  }
  const std::uint64_t codec_iters =
      std::max<std::uint64_t>(4, (8u << 20) / std::max<std::size_t>(1, encoded));
  out["common.codec_mb_s"] = mb_per_s(encoded, ns_per_call(codec_iters, [&] {
    Encoder enc;
    payload.encode(enc);
    Decoder dec{BytesView(enc.data())};
    g_sink = g_sink + types::Payload::decode(dec).txns.size();
  }));

  // A vote's signing bytes under one replica key.
  const crypto::KeyRegistry registry(n, 1);
  types::Vote vote;
  vote.round = 7;
  vote.voter = 0;
  vote.mode = types::VoteMode::Marker;
  const Bytes message = vote.signing_bytes();
  const Bytes key(32, 0x5a);
  out["crypto.hmac_ns"] = ns_per_call(20000, [&] {
    g_sink = g_sink + crypto::hmac_sha256(BytesView(key), BytesView(message))
                          .bytes[0];
  });

  // A cold (uncached) verification of a 2f+1-signer QC at the workload's n.
  const std::uint32_t quorum = 2 * ((n - 1) / 3) + 1;
  types::QuorumCert qc;
  qc.round = 7;
  for (ReplicaId voter = 0; voter < quorum; ++voter) {
    types::Vote v;
    v.round = 7;
    v.voter = voter;
    v.mode = types::VoteMode::Marker;
    v.marker = 2;
    v.sig = registry.signer_for(voter).sign(v.signing_bytes());
    qc.add_vote(v);
  }
  qc.canonicalize();
  out["crypto.qc_verify_us"] =
      ns_per_call(200, [&] {
        g_sink = g_sink + (qc.verify(registry, quorum) ? 1 : 0);
      }) / 1e3;

  // One scheduler event's life: schedule, pop, dispatch.
  constexpr std::uint64_t kEvents = 100000;
  out["sim.dispatch_ns"] = ns_per_call(1, [&] {
    sim::Scheduler sched;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      sched.schedule_at(static_cast<SimTime>(i), [] { g_sink = g_sink + 1; });
    }
    sched.run_until_idle();
  }) / static_cast<double>(kEvents);
  return out;
}

}  // namespace perfbench
