#include "src/shard/sharded_deployment.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/check.h"

namespace optilog {

ShardedDeployment::~ShardedDeployment() = default;

ReplicaId ShardedDeployment::Route(uint32_t s) {
  // Partitioned mode routes on the build-time anchor: a live read of the
  // tree root / PBFT leader would cross partitions. Retries rotate through
  // the shard's replicas, so a stale target only costs one forward hop.
  if (!static_route_.empty()) {
    return static_route_.at(s);
  }
  Deployment& d = shard(s);
  if (IsTreeProtocol(d.protocol())) {
    return d.tree().topology().root();
  }
  return d.pbft().config().leader;
}

uint32_t ShardedDeployment::RepliesNeeded(uint32_t s) {
  return shard(s).workload()->replies_needed;
}

void ShardedDeployment::Start() {
  for (auto& d : shards_) {
    d->Start();
  }
  if (fleet_ != nullptr) {
    fleet_->Start();
  }
}

void ShardedDeployment::RunUntil(SimTime t) {
  if (exec_ != nullptr) {
    exec_->RunUntil(t);
  } else {
    psims_[0]->RunUntil(t);
  }
  clock_ = t;
}

std::vector<TraceRecord> ShardedDeployment::TraceRecords() const {
  std::vector<const TraceRecorder*> recorders;
  for (const auto& sim : psims_) {
    if (sim->trace() != nullptr) {
      recorders.push_back(sim->trace());
    }
  }
  return MergeTraces(recorders);
}

size_t ShardedDeployment::SlabCapacity() const {
  size_t total = 0;
  for (const auto& sim : psims_) {
    total += sim->slab_capacity();
  }
  return total;
}

MetricsReport ShardedDeployment::Metrics() {
  // One shard, no transaction layer: this IS a legacy deployment driving a
  // shared simulator — hand through its report verbatim so fingerprints
  // match Build() exactly.
  if (shards_.size() == 1 && fleet_ == nullptr) {
    return shards_[0]->Metrics();
  }
  std::vector<MetricsReport> reports;
  for (auto& d : shards_) {
    reports.push_back(d->Metrics());
  }
  MetricsReport agg;
  FoldReports(agg, reports);

  // Deterministic counters summed across partitions (identical under the
  // merged and windowed drivers — every partition executes the same event
  // sequence either way); the rest comes from the executor, if any.
  std::vector<EventCoreStats> stats;
  for (const auto& sim : psims_) {
    stats.push_back(sim->event_core_stats());
  }
  EventCoreStats& ec = agg.event_core;
  FoldReports(ec, stats);
  ec.wall_seconds = stats[0].wall_seconds;
  if (exec_ != nullptr) {
    for (const EventCoreStats& s : stats) {
      if (exec_->parallel()) {
        ec.partition_ev_per_sec.push_back(
            s.wall_seconds > 0.0
                ? static_cast<double>(s.events_executed) / s.wall_seconds
                : 0.0);
      }
    }
    ec.partitions = partitions();
    ec.wall_seconds = exec_->wall_seconds();
    ec.lookahead_us =
        exec_->lookahead() == PartitionExecutor::kUnboundedLookahead
            ? 0
            : static_cast<uint64_t>(exec_->lookahead());
    ec.barrier_count = exec_->barrier_count();
  }

  if (fleet_ != nullptr) {
    // The fleet's client half plus the coordinators' 2PC counters.
    std::vector<TxnReport> coords;
    for (auto& coord : coordinators_) {
      coords.push_back(coord->stats());
    }
    agg.txn = fleet_->Report();
    FoldReports(agg.txn, coords);
  }
  return agg;
}

// --- Builder::BuildSharded ---------------------------------------------------

std::unique_ptr<ShardedDeployment> Deployment::Builder::BuildSharded() {
  auto sd = std::unique_ptr<ShardedDeployment>(new ShardedDeployment());
  const uint64_t base_seed = seed_.value_or(1);
  const uint32_t shards = shards_;
  const bool txn_mode = txn_workload_.clients_per_shard > 0;
  // Position C: more than one shard always runs partitioned — one event
  // core per shard group, plus a client partition in transaction mode. One
  // shard keeps the single shared simulator and the legacy event order.
  const uint32_t partitions =
      shards == 1 ? 1 : shards + (txn_mode ? 1 : 0);
  sd->router_ = KeyRouter(RouterKind::kHash, shards);
  sd->cross_pct_ = static_cast<uint32_t>(
      std::llround(cross_shard_ratio_ * 100.0));
  sd->txn_opts_ = txn_workload_;

  if (txn_mode) {
    OL_CHECK_MSG(workload_.has_value() && statemachine_.has_value(),
                 "WithTxnWorkload requires WithWorkload + WithStateMachine");
  }

  for (uint32_t p = 0; p < partitions; ++p) {
    sd->psims_.push_back(std::make_unique<Simulator>());
    sd->psims_[p]->SetPartition(p);
    if (trace_ || gauge_interval_ > 0) {
      // After SetPartition (record ids embed the partition) and before any
      // scheduling. Covers the client partition too, which never goes
      // through BuildInternal; the per-shard EnableTrace calls are no-ops.
      sd->psims_[p]->EnableTrace();
    }
  }

  const uint32_t total_clients = txn_workload_.clients_per_shard * shards;
  for (uint32_t s = 0; s < shards; ++s) {
    Builder b = Clone();
    // Shard 0 keeps the base seed so a 1-shard build replays Build()
    // event-for-event; the rest fold the shard index in.
    if (s > 0) {
      b.seed_ = base_seed ^ 0x9e3779b97f4a7c15ULL * s;
    } else {
      b.seed_ = base_seed;
    }
    if (txn_mode) {
      // The transaction fleet replaces the per-shard client fleets; the
      // shard still needs latency-model slots for the coordinators and
      // clients registered on its network (ids n .. n+shards+clients-1).
      b.workload_->spawn_fleet = false;
      b.workload_->extra_client_slots = shards + total_clients;
    }
    sd->shards_.push_back(b.BuildInternal(&sd->ShardSim(s)));
  }
  sd->n_ = sd->shards_[0]->n();
  for (auto& d : sd->shards_) {
    OL_CHECK(d->n() == sd->n_);
  }

  if (txn_mode) {
    if (partitions > 1) {
      // The client partition's scheduler never goes through BuildInternal:
      // mirror its configuration here, with the slab hint summed over the
      // per-shard client populations (one outstanding transaction each,
      // times the usual in-flight factor).
      Simulator& csim = sd->ClientSim();
      if (heap_scheduler_) {
        csim.UseHeapScheduler();
      }
      csim.ReserveHint(4 * static_cast<size_t>(total_clients) + 64);
    }
    for (uint32_t s = 0; s < shards; ++s) {
      const ReplicaId anchor = sd->Route(s);
      auto coord = std::make_unique<TxnCoordinator>(
          sd.get(), s, sd->coordinator_id(s), anchor);
      TxnCoordinator* cp = coord.get();
      for (uint32_t t = 0; t < shards; ++t) {
        sd->shards_[t]->net().Register(cp->id(), cp);
      }
      sd->shards_[s]->AddRecoveredHook([cp, anchor](ReplicaId id, SimTime at) {
        if (id == anchor) {
          cp->OnAnchorRecovered(at);
        }
      });
      sd->coordinators_.push_back(std::move(coord));
    }

    TxnWorkloadOptions fopts = txn_workload_;
    fopts.seed = fopts.seed * 0x9e3779b97f4a7c15ULL ^ base_seed;
    sd->fleet_ = std::make_unique<TxnFleet>(
        sd.get(), /*base_id=*/sd->n_ + shards, total_clients, sd->cross_pct_,
        fopts);
    for (uint32_t i = 0; i < sd->fleet_->size(); ++i) {
      TxnClient& client = sd->fleet_->client(i);
      for (uint32_t t = 0; t < shards; ++t) {
        sd->shards_[t]->net().Register(client.id(), &client);
      }
    }
  }

  if (partitions > 1) {
    // Freeze the routing table before any partition starts executing: the
    // anchors read here are the build-time leaders/roots.
    std::vector<ReplicaId> routes;
    routes.reserve(shards);
    for (uint32_t s = 0; s < shards; ++s) {
      routes.push_back(sd->Route(s));
    }
    sd->static_route_ = std::move(routes);

    // Static conservative lookahead: the smallest one-way delay between any
    // two ids owned by different partitions, over every shard network. Only
    // transaction mode has cross-partition edges at all; a fault model that
    // can compress outbound delays below the static minimum forces the
    // merged sequential driver (lookahead 0).
    SimTime lookahead = PartitionExecutor::kUnboundedLookahead;
    if (txn_mode) {
      const uint32_t n = sd->n_;
      const uint32_t total_ids = n + shards + total_clients;
      auto owner_of = [&](uint32_t home, uint32_t id) -> uint32_t {
        if (id < n) {
          return home;
        }
        if (id < n + shards) {
          return id - n;
        }
        return shards;
      };
      for (uint32_t t = 0; t < shards; ++t) {
        const LatencyModel* lat = sd->shards_[t]->net().latency();
        for (uint32_t a = 0; a < total_ids; ++a) {
          for (uint32_t b = 0; b < total_ids; ++b) {
            if (a == b || owner_of(t, a) == owner_of(t, b)) {
              continue;
            }
            lookahead = std::min(lookahead, lat->OneWay(a, b));
          }
        }
      }
      for (uint32_t s = 0; s < shards; ++s) {
        if (sd->shards_[s]->faults().MinOutboundDelayFactor() < 1.0) {
          lookahead = 0;
        }
      }
    }

    std::vector<Simulator*> sims;
    sims.reserve(partitions);
    for (auto& sim : sd->psims_) {
      sims.push_back(sim.get());
    }
    unsigned threads = sim_threads_ != 0 ? sim_threads_ : GlobalSimThreads();
    if (threads == 0) {
      threads = 1;
    }
    sd->exec_ =
        std::make_unique<PartitionExecutor>(sims, lookahead, threads);

    if (txn_mode) {
      // Only transaction-mode nets carry cross-partition actors; without a
      // fleet every net is fully partition-local and needs no plan.
      for (uint32_t t = 0; t < shards; ++t) {
        Network::PartitionPlan plan;
        plan.home = t;
        plan.coord_base = sd->n_;
        plan.client_base = sd->n_ + shards;
        plan.client_partition = shards;
        plan.exchange = sd->exec_.get();
        plan.sims = sims;
        sd->shards_[t]->net().EnableParallel(std::move(plan));
      }
    }
  }
  return sd;
}

}  // namespace optilog
