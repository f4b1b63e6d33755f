// ShardedDeployment: N consensus groups, partitioned event cores, one
// keyspace.
//
// Built by Deployment::Builder::BuildSharded(). Each shard is a complete
// Deployment — its own Network, FaultModel, KeyStore, engine, and RsmGroup.
// With more than one shard, every shard group runs on its OWN Simulator
// (one event-core partition per shard, plus one partition for the 2PC
// coordinators' clients when a transaction workload is attached), and a
// PartitionExecutor (src/shard/parallel_exec.h) drives them in the
// partitioned total order (at, sched, src, seq) — byte-identical at any
// --sim-threads value, sequential merged driver included. With exactly one
// shard everything shares a single simulator and the legacy event order,
// which is what pins one-shard-equals-legacy.
//
// Id layout (every shard has the same n replicas): per shard network,
// replicas are 0..n-1, coordinator of shard s is n+s, and transaction
// client i is n+shards+i. Coordinators and clients are registered on EVERY
// shard's network under the same id — cross-shard sends are ordinary
// Network::Send calls on the target shard's network, which routes them
// through the executor's exchange when sender and destination live on
// different partitions.
//
// Partition map: shard s's replicas AND its coordinator (colocated with the
// shard's anchor replica, sharing its crash windows and recovery state
// reads) live on partition s; the transaction clients live on partition
// `shards`. Non-transactional sharded deployments have NO cross-partition
// edges at all — each shard's client fleet is partition-local — so their
// partitions are causally independent and the per-shard reports equal the
// shared-simulator ones exactly.
#pragma once

#include <memory>
#include <vector>

#include "src/api/deployment.h"
#include "src/shard/key_router.h"
#include "src/shard/parallel_exec.h"
#include "src/shard/txn_coordinator.h"
#include "src/shard/txn_fleet.h"

namespace optilog {

class ShardedDeployment {
 public:
  ~ShardedDeployment();

  // --- shards ----------------------------------------------------------------
  uint32_t shards() const { return static_cast<uint32_t>(shards_.size()); }
  Deployment& shard(uint32_t s) { return *shards_.at(s); }
  const KeyRouter& router() const { return router_; }
  uint32_t replicas_per_shard() const { return n_; }
  uint32_t cross_shard_pct() const { return cross_pct_; }
  const TxnWorkloadOptions& txn_options() const { return txn_opts_; }

  // --- event-core partitions -------------------------------------------------
  uint32_t partitions() const { return static_cast<uint32_t>(psims_.size()); }
  // Partition 0's simulator (THE simulator for a 1-shard deployment).
  Simulator& sim() { return *psims_[0]; }
  // Scheduler shard s's replicas (and coordinator) run on.
  Simulator& ShardSim(uint32_t s) {
    return *psims_[psims_.size() == 1 ? 0 : s];
  }
  // Scheduler the transaction clients run on (the client partition when
  // partitioned, partition 0 otherwise).
  Simulator& ClientSim() { return *psims_.back(); }
  // Sum of the partitions' slab capacities (the warm-up growth assertion in
  // the shard-scaling scenario reads this).
  size_t SlabCapacity() const;
  const PartitionExecutor* executor() const { return exec_.get(); }

  // --- transaction layer (nullptr / empty without WithTxnWorkload) -----------
  TxnCoordinator* coordinator(uint32_t s) {
    return s < coordinators_.size() ? coordinators_[s].get() : nullptr;
  }
  TxnFleet* txn_fleet() { return fleet_.get(); }
  ReplicaId coordinator_id(uint32_t s) const { return n_ + s; }
  // Replica currently serving shard `s` (tree root / PBFT leader). In
  // partitioned mode this is the build-time anchor, captured statically:
  // a live read would cross partitions (racy under the windowed driver and
  // execution-interleaving-dependent under any driver); a stale target is
  // harmless because retries rotate through the shard's replicas and
  // crashed-leader forwarding finds whoever leads now.
  ReplicaId Route(uint32_t s);
  // Distinct replies that complete a client-visible record on shard `s`:
  // the shard's resolved `replies_needed` (1 for the tree family, f+1 for
  // PBFT unless WithWorkload says otherwise). Pure configuration — safe
  // from any partition.
  uint32_t RepliesNeeded(uint32_t s);

  // --- lifecycle -------------------------------------------------------------
  void Start();
  void RunFor(SimTime d) { RunUntil(clock_ + d); }
  void RunUntil(SimTime t);

  // Aggregate metrics: the shard reports folded by FoldReports (shard order
  // fixes the "s<i>." gauge prefixes and the digest of digests), the event
  // core summed across partitions (the shared simulator's when
  // unpartitioned), and the transaction report. Exactly the single shard's
  // report for a 1-shard, no-txn deployment.
  MetricsReport Metrics();
  MetricsReport ShardMetrics(uint32_t s) { return shards_.at(s)->Metrics(); }

  // Flight-recorder records merged across every partition in the canonical
  // (t, id) order; empty without WithTrace / WithGaugeSampling. The merged
  // sequence is a pure function of the per-partition streams, so it is
  // byte-identical at any --sim-threads value.
  std::vector<TraceRecord> TraceRecords() const;

 private:
  friend class Deployment::Builder;
  ShardedDeployment() = default;

  KeyRouter router_;
  uint32_t n_ = 0;
  uint32_t cross_pct_ = 0;
  TxnWorkloadOptions txn_opts_;
  // Partition schedulers; destroyed AFTER everything that schedules on them
  // (declaration order is destruction-reverse order).
  std::vector<std::unique_ptr<Simulator>> psims_;
  std::vector<std::unique_ptr<Deployment>> shards_;
  std::vector<std::unique_ptr<TxnCoordinator>> coordinators_;
  std::unique_ptr<TxnFleet> fleet_;
  std::unique_ptr<PartitionExecutor> exec_;  // null when partitions() == 1
  // Build-time anchor of each shard, the static cross-partition routing
  // table (empty when partitions() == 1: Route reads live state).
  std::vector<ReplicaId> static_route_;
  SimTime clock_ = 0;
};

}  // namespace optilog
