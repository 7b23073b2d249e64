#include "traced.hpp"

#include <stdexcept>
#include <string>

#include "sftbft/adversary/byzantine_replica.hpp"
#include "sftbft/adversary/byzantine_streamlet.hpp"
#include "sftbft/engine/chained_engine.hpp"
#include "sftbft/engine/fault.hpp"
#include "sftbft/engine/streamlet_engine.hpp"

namespace perfbench {

using namespace sftbft;

TracingTransport::TracingTransport(net::SimTransport& inner,
                                   SpanRecorder& spans)
    : inner_(inner), spans_(spans) {
  for (std::size_t tag = 0; tag < recv_keys_.size(); ++tag) {
    const auto type = static_cast<net::WireType>(tag);
    recv_keys_[tag] =
        spans_.key(std::string("engine.recv.") +
                   (net::wire_type_known(static_cast<std::uint8_t>(tag))
                        ? net::wire_type_name(type)
                        : "unknown"));
  }
}

void TracingTransport::set_handler(ReplicaId id, Handler handler) {
  if (!handler) {
    inner_.set_handler(id, nullptr);
    return;
  }
  inner_.set_handler(id, [this, handler = std::move(handler)](
                             const net::Envelope& env, std::size_t bytes) {
    const SpanRecorder::Scope span(
        spans_, recv_keys_[static_cast<std::uint8_t>(env.type)]);
    handler(env, bytes);
  });
}

SpanRecorder::Key TracingTransport::send_key(const net::Envelope& env,
                                             const char* label) {
  const char* name = label != nullptr ? label : net::wire_type_name(env.type);
  const auto it = send_keys_.find(name);
  if (it != send_keys_.end()) return it->second;
  const SpanRecorder::Key key = spans_.key(std::string("net.send.") + name);
  send_keys_.emplace(name, key);
  return key;
}

void TracingTransport::send(ReplicaId to, net::Envelope env,
                            const char* label) {
  encoded_bytes_ += net::Envelope::kOverhead + env.payload.size();
  const SpanRecorder::Scope span(spans_, send_key(env, label));
  inner_.send(to, std::move(env), label);
}

void TracingTransport::broadcast(net::Envelope env, bool include_self,
                                 const char* label) {
  encoded_bytes_ += net::Envelope::kOverhead + env.payload.size();
  const SpanRecorder::Scope span(spans_, send_key(env, label));
  inner_.broadcast(std::move(env), include_self, label);
}

void TimedBackend::append(const std::string& name, BytesView data) {
  const SpanRecorder::Scope span(spans_, key_);
  ++appends_;
  bytes_written_ += data.size();
  inner_.append(name, data);
}

void TimedBackend::write_atomic(const std::string& name, BytesView data) {
  const SpanRecorder::Scope span(spans_, key_);
  bytes_written_ += data.size();
  inner_.write_atomic(name, data);
}

void TimedBackend::sync(const std::string& name) {
  const SpanRecorder::Scope span(spans_, key_);
  ++syncs_;
  inner_.sync(name);
}

void TimedBackend::truncate(const std::string& name, std::size_t size) {
  const SpanRecorder::Scope span(spans_, key_);
  inner_.truncate(name, size);
}

Bytes TimedBackend::read(const std::string& name) const {
  const SpanRecorder::Scope span(spans_, key_);
  return inner_.read(name);
}

bool TimedBackend::exists(const std::string& name) const {
  const SpanRecorder::Scope span(spans_, key_);
  return inner_.exists(name);
}

void TimedBackend::remove(const std::string& name) {
  const SpanRecorder::Scope span(spans_, key_);
  inner_.remove(name);
}

void TimedBackend::simulate_crash() {
  const SpanRecorder::Scope span(spans_, key_);
  inner_.simulate_crash();
}

// Mirrors engine::Deployment::Deployment step for step; every seed below
// is Deployment's derivation (see deployment.cpp), which is what makes the
// two assemblies commit the same chain.
TracedDeployment::TracedDeployment(engine::DeploymentConfig config,
                                   SpanRecorder& spans,
                                   engine::CommitObserver observer,
                                   engine::AuditTaps taps)
    : config_(std::move(config)) {
  if (config_.topology.size() != config_.n) {
    throw std::invalid_argument("TracedDeployment: topology size != n");
  }
  engine::validate_faults(config_.faults, config_.n);
  for (const engine::FaultSpec& fault : config_.faults) {
    if (fault.kind == engine::FaultSpec::Kind::Byzantine && !coalition_) {
      coalition_ = std::make_shared<adversary::Coalition>();
    }
  }
  registry_ = std::make_shared<crypto::KeyRegistry>(config_.n, config_.seed);
  backends_.resize(config_.n);
  stores_.resize(config_.n);

  const auto fault_for = [this](ReplicaId id) {
    return id < config_.faults.size() ? config_.faults[id]
                                      : engine::FaultSpec::honest();
  };
  const auto qc_tap_for = [&taps](ReplicaId id) -> replica::Replica::QcTap {
    if (!taps.canonical_qc) return nullptr;
    return [id, tap = taps.canonical_qc](const types::Block& block,
                                         const types::QuorumCert& qc) {
      tap(id, block, qc);
    };
  };
  const auto block_tap_for =
      [&taps](ReplicaId id) -> engine::StreamletEngine::BlockTap {
    if (!taps.block_seen) return nullptr;
    return [id, tap = taps.block_seen](const types::Block& block) {
      tap(id, block);
    };
  };
  const auto vote_tap_for =
      [&taps](ReplicaId id) -> engine::StreamletEngine::VoteTap {
    if (!taps.vote_seen) return nullptr;
    return [id, tap = taps.vote_seen](const streamlet::SVote& vote) {
      tap(id, core::VoteSeen{vote.block_id, vote.round, vote.height,
                             vote.voter, vote.marker});
    };
  };

  const std::uint64_t net_seed =
      config_.seed ^ [&]() -> std::uint64_t {
        switch (config_.protocol) {
          case engine::Protocol::DiemBft: return 0xabcdULL;
          case engine::Protocol::Streamlet: return 0x51ee7ULL;
          case engine::Protocol::HotStuff: return 0x407507ULL;
        }
        return 0;
      }();
  sim_transport_ = std::make_unique<net::SimTransport>(
      sched_, config_.topology, config_.net, net_seed);
  transport_ = std::make_unique<TracingTransport>(*sim_transport_, spans);
  if (config_.obs.enabled) {
    observer_ = std::make_unique<obs::Observer>(config_.obs, config_.n);
    sim_transport_->set_observer(observer_.get());
  }
  for (ReplicaId id = 0; id < config_.faults.size(); ++id) {
    if (config_.faults[id].kind != engine::FaultSpec::Kind::Corrupt) continue;
    if (config_.net.gst <= 0) {
      throw std::invalid_argument(
          "TracedDeployment: Corrupt fault needs net.gst > 0");
    }
    sim_transport_->set_corruption(id, config_.faults[id].corrupt);
  }

  const auto dissem_for = [this](ReplicaId id) {
    dissem::DissemConfig dcfg = config_.dissem;
    dcfg.observer = observer_.get();
    dcfg.self = id;
    return dcfg;
  };

  Rng workload_rng(config_.seed ^ 0x77aa);
  for (ReplicaId id = 0; id < config_.n; ++id) {
    const engine::FaultSpec fault = fault_for(id);
    const bool byzantine = fault.kind == engine::FaultSpec::Kind::Byzantine;
    if (engine::is_chained(config_.protocol)) {
      consensus::CoreConfig core = config_.chained;
      core.id = id;
      core.n = config_.n;
      core.observer = observer_.get();
      if (byzantine) {
        engines_.push_back(std::make_unique<adversary::ByzantineReplica>(
            config_.protocol, core, *transport_, registry_, config_.workload,
            workload_rng.fork(), fault, coalition_, qc_tap_for(id),
            dissem_for(id)));
      } else {
        engines_.push_back(std::make_unique<engine::ChainedEngine>(
            config_.protocol, core, *transport_, registry_, config_.workload,
            workload_rng.fork(), fault, observer, make_store(id, fault, spans),
            qc_tap_for(id), dissem_for(id)));
      }
    } else {
      streamlet::StreamletConfig core = config_.streamlet;
      core.id = id;
      core.n = config_.n;
      core.observer = observer_.get();
      if (byzantine) {
        engines_.push_back(std::make_unique<adversary::ByzantineStreamlet>(
            core, *transport_, registry_, config_.workload,
            workload_rng.fork(), fault, coalition_, block_tap_for(id),
            vote_tap_for(id), dissem_for(id)));
      } else {
        engines_.push_back(std::make_unique<engine::StreamletEngine>(
            core, *transport_, registry_, config_.workload,
            workload_rng.fork(), fault, observer, make_store(id, fault, spans),
            block_tap_for(id), vote_tap_for(id), dissem_for(id)));
      }
    }
  }
}

storage::ReplicaStore* TracedDeployment::make_store(
    ReplicaId id, const engine::FaultSpec& fault, SpanRecorder& spans) {
  const bool wants_store = config_.persist_all ||
                           fault.kind == engine::FaultSpec::Kind::CrashRestart;
  if (!wants_store) return nullptr;
  backends_[id] = std::make_unique<TimedBackend>(
      config_.seed ^ 0x5708AC4EDULL ^ id, spans);
  storage::StoreConfig store_config = config_.storage;
  store_config.observer = observer_.get();
  store_config.sched = &sched_;
  stores_[id] = std::make_unique<storage::ReplicaStore>(*backends_[id], id,
                                                        store_config);
  return stores_[id].get();
}

void TracedDeployment::start() {
  for (auto& engine : engines_) engine->start();
}

}  // namespace perfbench
