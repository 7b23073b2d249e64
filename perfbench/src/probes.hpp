// Kernel probes: public library functions timed on inputs shaped like the
// workload (its dominant frame size, QCs at its n). They run after the
// timed phase, so they never perturb it.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// common.crc32_mb_s, common.codec_mb_s, crypto.sha256_mb_s,
/// crypto.hmac_ns, crypto.qc_verify_us and sim.dispatch_ns.
[[nodiscard]] std::map<std::string, double> run_probes(double frame_bytes,
                                                       std::uint32_t n,
                                                       std::uint32_t txn_size);

}  // namespace perfbench
