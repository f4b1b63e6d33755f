// TxnFleet: the client side of the sharded deployment.
//
// Closed-loop clients (one transaction outstanding each) draw multi-key
// transactions over the KeyRouter-partitioned keyspace. A draw below the
// deployment's cross-shard ratio spans two shards (keys from two distinct
// per-shard private buckets) and goes to the home shard's TxnCoordinator;
// otherwise all keys live on one shard and the client sends a kMulti record
// straight to that shard's leader — the fast path whose throughput scales
// with the shard count.
//
// The model oracle spans shards: each client tracks its private keys'
// expected values across all shards and verifies every committed result.
// Aborted transactions (lock conflicts) back off and retry as fresh
// transactions; recovery-path commits return no values, so the oracle
// blind-adopts its own ops' effects (exactly-once is guaranteed by the
// home shard's durable decision record).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/rsm/metrics.h"
#include "src/shard/txn_options.h"
#include "src/sim/actor.h"
#include "src/statemachine/state_machine.h"
#include "src/util/rng.h"

namespace optilog {

class ShardedDeployment;
class Simulator;
class TxnFleet;

class TxnClient : public Actor {
 public:
  TxnClient(ReplicaId id, uint32_t index, TxnFleet* fleet, Rng rng);

  void OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) override;
  void OnTimer(uint64_t tag, SimTime at) override;

  ReplicaId id() const { return id_; }

 private:
  friend class TxnFleet;
  static constexpr uint64_t kTagNext = 0;

  void Start(SimTime now);
  void StartTxn(SimTime now);
  void SendAttempt();
  void Complete(bool committed, const Bytes& results, SimTime at);
  // Oracle check + model update of one committed op (hot keys skipped).
  void VerifyOp(const KvOp& op, const KvResult& res);
  KvOp DrawOpFor(uint32_t shard);
  uint64_t DrawPrivateKey(uint32_t shard);

  struct Pending {
    uint64_t request_id = 0;
    SimTime sent_at = 0;
    std::vector<KvOp> ops;
    std::vector<uint32_t> op_shard;
    bool cross = false;      // >= 2 distinct shards
    uint32_t home = 0;       // target shard (single) / coordinator's shard
    ReplicaId target = kNoReplica;
    std::set<ReplicaId> replies;  // single-shard: distinct repliers
    uint32_t attempts = 1;
    EventId retry = kNoEvent;
  };

  const ReplicaId id_;
  const uint32_t index_;
  TxnFleet* fleet_;
  Rng rng_;
  uint64_t next_request_ = 0;
  std::optional<Pending> cur_;
  // The cross-shard oracle: expected values of this client's private keys,
  // all shards in one map (keys are globally unique).
  std::map<uint64_t, uint64_t> model_;
  // Private key buckets per shard, precomputed through the router.
  std::vector<std::vector<uint64_t>> shard_keys_;
};

class TxnFleet {
 public:
  TxnFleet(ShardedDeployment* owner, ReplicaId base_id, uint32_t clients,
           uint32_t cross_pct, TxnWorkloadOptions opts);

  void Start();

  uint32_t size() const { return static_cast<uint32_t>(clients_.size()); }
  TxnClient& client(uint32_t i) { return *clients_.at(i); }
  const TxnWorkloadOptions& options() const { return opts_; }

  // Client-side half of the transaction report (the coordinators add the
  // 2PC half).
  TxnReport Report() const;

 private:
  friend class TxnClient;

  // Thin forwards into the owning ShardedDeployment (kept out of the header
  // to avoid a circular include).
  Simulator& sim();
  uint32_t owner_shards() const;
  uint32_t replicas_per_shard() const;
  uint32_t RouteKey(uint64_t key) const;
  ReplicaId RouteShard(uint32_t shard);
  ReplicaId CoordinatorId(uint32_t shard) const;
  uint32_t RepliesNeeded(uint32_t shard);
  void Send(uint32_t shard, ReplicaId from, ReplicaId to, MessagePtr msg);

  ShardedDeployment* owner_;
  TxnWorkloadOptions opts_;
  const uint32_t cross_pct_;
  std::vector<std::unique_ptr<TxnClient>> clients_;
  // Hot keys grouped by home shard: single-shard draws only use hot keys
  // colocated with their private keys, so a 0% cross point stays pure.
  std::vector<std::vector<uint64_t>> hot_by_shard_;

  TxnReport counts_;  // the client-side counters
  ThroughputRecorder committed_txns_;
  LatencyRecorder single_latency_;
  LatencyRecorder cross_latency_;
};

}  // namespace optilog
