// The traced assembly: the same engines engine::Deployment builds, from
// their public constructors, over boundaries that record host-time spans.
//
//  * TracingTransport wraps the deployment's net::SimTransport and opens a
//    `net.send.<label>` span around every send/broadcast and an
//    `engine.recv.<type>` span around every inbound handler call;
//  * TimedBackend wraps each replica's storage::MemBackend in a `storage`
//    span and counts appends, syncs and bytes written;
//  * the caller wraps the audit taps and commit observer (harness.audit).
//
// TracedDeployment repeats Deployment's construction order and seed
// derivations (network, workload, storage and key streams) so that, at the
// same config, it commits the same chain; benchmark runs check that on
// every traced run and the tests check it per engine and fault kind.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sftbft/adversary/coalition.hpp"
#include "sftbft/engine/deployment.hpp"
#include "sftbft/net/sim_transport.hpp"
#include "sftbft/obs/observer.hpp"
#include "sftbft/storage/mem_backend.hpp"
#include "sftbft/storage/replica_store.hpp"
#include "spans.hpp"

namespace perfbench {

class TracingTransport final : public sftbft::net::Transport {
 public:
  TracingTransport(sftbft::net::SimTransport& inner, SpanRecorder& spans);

  void set_handler(sftbft::ReplicaId id, Handler handler) override;
  void disconnect(sftbft::ReplicaId id) override { inner_.disconnect(id); }
  [[nodiscard]] bool connected(sftbft::ReplicaId id) const override {
    return inner_.connected(id);
  }
  void send(sftbft::ReplicaId to, sftbft::net::Envelope env,
            const char* label = nullptr) override;
  void broadcast(sftbft::net::Envelope env, bool include_self,
                 const char* label = nullptr) override;
  [[nodiscard]] std::uint32_t size() const override { return inner_.size(); }
  [[nodiscard]] sftbft::net::MessageStats& stats() override {
    return inner_.stats();
  }
  [[nodiscard]] const sftbft::net::MessageStats& stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] sftbft::sim::Scheduler& scheduler() override {
    return inner_.scheduler();
  }

  /// Bytes encoded by send/broadcast calls (a broadcast encodes once).
  [[nodiscard]] std::uint64_t encoded_bytes() const { return encoded_bytes_; }

 private:
  SpanRecorder::Key send_key(const sftbft::net::Envelope& env,
                             const char* label);

  sftbft::net::SimTransport& inner_;
  SpanRecorder& spans_;
  std::array<SpanRecorder::Key, 256> recv_keys_{};
  std::unordered_map<const char*, SpanRecorder::Key> send_keys_;
  std::uint64_t encoded_bytes_ = 0;
};

class TimedBackend final : public sftbft::storage::StorageBackend {
 public:
  TimedBackend(std::uint64_t seed, SpanRecorder& spans)
      : inner_(seed), spans_(spans), key_(spans.key("storage")) {}

  void append(const std::string& name, sftbft::BytesView data) override;
  void write_atomic(const std::string& name,
                    sftbft::BytesView data) override;
  void sync(const std::string& name) override;
  void truncate(const std::string& name, std::size_t size) override;
  [[nodiscard]] sftbft::Bytes read(const std::string& name) const override;
  [[nodiscard]] bool exists(const std::string& name) const override;
  void remove(const std::string& name) override;
  void simulate_crash() override;

  [[nodiscard]] std::uint64_t appends() const { return appends_; }
  [[nodiscard]] std::uint64_t syncs() const { return syncs_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  sftbft::storage::MemBackend inner_;
  SpanRecorder& spans_;
  SpanRecorder::Key key_;
  std::uint64_t appends_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t bytes_written_ = 0;
};

class TracedDeployment {
 public:
  /// Same contract as engine::Deployment's constructor; `spans` must
  /// outlive the deployment.
  TracedDeployment(sftbft::engine::DeploymentConfig config,
                   SpanRecorder& spans,
                   sftbft::engine::CommitObserver observer,
                   sftbft::engine::AuditTaps taps);
  TracedDeployment(const TracedDeployment&) = delete;
  TracedDeployment& operator=(const TracedDeployment&) = delete;

  void start();
  [[nodiscard]] sftbft::sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const sftbft::chain::Ledger& ledger(sftbft::ReplicaId id) const {
    return engines_[id]->ledger();
  }
  [[nodiscard]] const sftbft::net::MessageStats& net_stats() const {
    return sim_transport_->stats();
  }
  [[nodiscard]] const TracingTransport& transport() const {
    return *transport_;
  }
  [[nodiscard]] const sftbft::adversary::Coalition* coalition() const {
    return coalition_.get();
  }
  [[nodiscard]] const sftbft::obs::Observer* observer() const {
    return observer_.get();
  }
  /// Storage backends of persistent replicas (null slots elsewhere).
  [[nodiscard]] const std::vector<std::unique_ptr<TimedBackend>>& backends()
      const {
    return backends_;
  }

 private:
  sftbft::storage::ReplicaStore* make_store(
      sftbft::ReplicaId id, const sftbft::engine::FaultSpec& fault,
      SpanRecorder& spans);

  sftbft::engine::DeploymentConfig config_;
  sftbft::sim::Scheduler sched_;
  std::shared_ptr<const sftbft::crypto::KeyRegistry> registry_;
  std::shared_ptr<sftbft::adversary::Coalition> coalition_;
  std::unique_ptr<sftbft::net::SimTransport> sim_transport_;
  std::unique_ptr<TracingTransport> transport_;
  std::unique_ptr<sftbft::obs::Observer> observer_;
  std::vector<std::unique_ptr<TimedBackend>> backends_;
  std::vector<std::unique_ptr<sftbft::storage::ReplicaStore>> stores_;
  std::vector<std::unique_ptr<sftbft::engine::ConsensusEngine>> engines_;
};

}  // namespace perfbench
