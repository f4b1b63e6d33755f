#include "src/shard/txn_fleet.h"

#include <algorithm>
#include <utility>

#include "src/shard/sharded_deployment.h"
#include "src/shard/txn_messages.h"
#include "src/util/check.h"
#include "src/workload/messages.h"

namespace optilog {

// ---------------------------------------------------------------------------
// TxnClient

TxnClient::TxnClient(ReplicaId id, uint32_t index, TxnFleet* fleet, Rng rng)
    : id_(id), index_(index), fleet_(fleet), rng_(rng) {
  // Precompute this client's private key buckets: walk a client-unique key
  // sequence through the router until every shard holds its quota. Bit 63
  // stays clear (set marks hot keys) and the high half is the client index,
  // so buckets never overlap across clients.
  const uint32_t shards = fleet_->owner_shards();
  const uint32_t per_shard = fleet_->opts_.keys_per_client_shard;
  shard_keys_.resize(shards);
  uint32_t filled = 0;
  for (uint64_t j = 0; filled < shards; ++j) {
    OL_CHECK_MSG(j < 1000000, "router starved a client key bucket");
    const uint64_t key = (uint64_t{index_} + 1) << 32 | j;
    auto& bucket = shard_keys_[fleet_->RouteKey(key)];
    if (bucket.size() < per_shard) {
      bucket.push_back(key);
      if (bucket.size() == per_shard) {
        ++filled;
      }
    }
  }
}

void TxnClient::Start(SimTime now) {
  (void)now;
  // Staggered first arrival so clients don't fire in lockstep.
  fleet_->sim().ScheduleTimer(this, kTagNext,
                              (1 + index_ % 16) * (kMsec / 4));
}

void TxnClient::OnTimer(uint64_t tag, SimTime at) {
  if (tag == kTagNext) {
    if (!cur_.has_value()) {
      StartTxn(at);
    }
    return;
  }
  // Retry timer for the in-flight attempt (tag = request id + 1).
  if (!cur_.has_value() || tag != cur_->request_id + 1) {
    return;
  }
  cur_->retry = kNoEvent;
  ++cur_->attempts;
  ++fleet_->counts_.retried;
  if (!cur_->cross) {
    // The shard leader may have crashed; rotate to the next replica, which
    // forwards to whoever leads now.
    cur_->target = (cur_->target + 1) % fleet_->replicas_per_shard();
  }
  SendAttempt();
}

void TxnClient::StartTxn(SimTime now) {
  const TxnWorkloadOptions& opts = fleet_->opts_;
  if (opts.stop_at != 0 && now >= opts.stop_at) {
    return;  // drain mode: stop generating, let in-flight work finish
  }
  const uint32_t shards = fleet_->owner_shards();
  const uint32_t nops = std::max<uint32_t>(1, opts.keys_per_txn);

  Pending p;
  p.request_id = next_request_++;
  p.sent_at = now;

  const bool want_cross = shards > 1 && fleet_->cross_pct_ > 0 &&
                          rng_.Below(100) < fleet_->cross_pct_;
  uint32_t shard_a = static_cast<uint32_t>(rng_.Below(shards));
  uint32_t shard_b = shard_a;
  if (want_cross) {
    shard_b = static_cast<uint32_t>(rng_.Below(shards - 1));
    if (shard_b >= shard_a) {
      ++shard_b;
    }
  }

  std::set<uint64_t> used;
  for (uint32_t i = 0; i < nops; ++i) {
    const uint32_t shard = (i % 2 == 1) ? shard_b : shard_a;
    KvOp op = DrawOpFor(shard);
    for (uint32_t tries = 0; used.count(op.key) > 0; ++tries) {
      OL_CHECK_MSG(tries < 64, "could not draw distinct txn keys");
      op.key = DrawPrivateKey(shard);
    }
    used.insert(op.key);
    p.ops.push_back(op);
  }

  // Contention injection: with probability hot_pct, retarget the first op at
  // a shared hot key colocated on its own shard (so a 0% cross-shard point
  // never grows a second participant through the hot set).
  if (opts.hot_pct > 0 && rng_.Below(100) < opts.hot_pct) {
    const auto& hot = fleet_->hot_by_shard_[shard_a];
    if (!hot.empty()) {
      const uint64_t key = hot[rng_.Below(hot.size())];
      if (used.count(key) == 0) {
        p.ops[0].key = key;
      }
    }
  }

  std::set<uint32_t> distinct;
  for (const KvOp& op : p.ops) {
    const uint32_t s = fleet_->RouteKey(op.key);
    p.op_shard.push_back(s);
    distinct.insert(s);
  }
  p.cross = distinct.size() > 1;
  p.home = p.op_shard[0];
  p.target = p.cross ? fleet_->CoordinatorId(p.home) : fleet_->RouteShard(p.home);

  cur_ = std::move(p);
  ++fleet_->counts_.submitted;
  if (TraceRecorder* tr = fleet_->sim().trace()) {
    // Lifecycle root of this transaction's span tree; retries reuse it.
    tr->EmitHere(now, TraceKind::kClientSend, cur_->cross ? 1 : 0, id_,
                 cur_->request_id, id_);
  }
  SendAttempt();
}

void TxnClient::SendAttempt() {
  Pending& p = *cur_;
  if (p.cross) {
    auto msg = fleet_->sim().pool().Make<TxnRequestMsg>();
    msg->client = id_;
    msg->request_id = p.request_id;
    msg->sent_at = p.sent_at;
    msg->ops = p.ops;
    fleet_->Send(p.home, id_, p.target, std::move(msg));
  } else {
    KvTxnOp record;
    record.tag = TxnTag::kMulti;
    record.ops = p.ops;
    auto msg = fleet_->sim().pool().Make<ClientRequestMsg>();
    msg->client = id_;
    msg->request_id = p.request_id;
    msg->sent_at = p.sent_at;
    msg->op = record.Encode();
    msg->shard = p.home;
    fleet_->Send(p.home, id_, p.target, std::move(msg));
  }
  p.retry = fleet_->sim().ScheduleTimer(this, p.request_id + 1,
                                        fleet_->opts_.retry_timeout);
}

void TxnClient::OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) {
  if (!cur_.has_value()) {
    return;  // stale reply for a finished attempt
  }
  if (msg->type() == kMsgTxnReply) {
    const auto& reply = static_cast<const TxnReplyMsg&>(*msg);
    if (reply.request_id != cur_->request_id) {
      return;
    }
    fleet_->sim().Cancel(cur_->retry);
    Complete(reply.committed, reply.results, at);
    return;
  }
  if (msg->type() != kMsgClientReply) {
    return;
  }
  const auto& reply = static_cast<const ClientReplyMsg&>(*msg);
  if (reply.request_id != cur_->request_id) {
    return;
  }
  cur_->replies.insert(from);
  if (cur_->replies.size() < fleet_->RepliesNeeded(cur_->home)) {
    return;
  }
  fleet_->sim().Cancel(cur_->retry);
  KvMultiResult m;
  const bool decoded = KvMultiResult::Decode(reply.result, &m);
  Complete(decoded && m.ok, reply.result, at);
}

void TxnClient::Complete(bool committed, const Bytes& results, SimTime at) {
  Pending p = std::move(*cur_);
  cur_.reset();

  if (committed) {
    if (TraceRecorder* tr = fleet_->sim().trace()) {
      tr->EmitHere(at, TraceKind::kClientComplete, p.cross ? 1 : 0, id_,
                   p.request_id, id_);
    }
  }

  if (!committed) {
    ++fleet_->counts_.aborted;
    fleet_->sim().ScheduleTimer(this, kTagNext, fleet_->opts_.abort_backoff);
    return;
  }

  KvMultiResult m;
  const bool have_values = KvMultiResult::Decode(results, &m) && m.ok &&
                           m.results.size() == p.ops.size();
  for (size_t i = 0; i < p.ops.size(); ++i) {
    const KvOp& op = p.ops[i];
    if (have_values) {
      VerifyOp(op, m.results[i]);
    } else if ((op.key >> 63) == 0) {
      // Recovery-path commit: the decision is durable but the values died
      // with the coordinator. Adopt our own ops' effects into the model.
      if (op.kind == KvOpKind::kPut) {
        model_[op.key] = op.arg;
      } else if (op.kind == KvOpKind::kAdd) {
        model_[op.key] += op.arg;
      }
    }
  }

  ++fleet_->counts_.committed;
  if (p.cross) {
    ++fleet_->counts_.committed_cross;
  } else {
    ++fleet_->counts_.committed_single;
  }
  fleet_->committed_txns_.RecordCommit(at, 1);
  const SimTime delta = at > p.sent_at ? at - p.sent_at : 0;
  (p.cross ? fleet_->cross_latency_ : fleet_->single_latency_).Record(0, delta);

  if (fleet_->opts_.think_time > 0) {
    fleet_->sim().ScheduleTimer(this, kTagNext, fleet_->opts_.think_time);
  } else {
    StartTxn(at);
  }
}

void TxnClient::VerifyOp(const KvOp& op, const KvResult& res) {
  if ((op.key >> 63) != 0) {
    return;  // hot keys are multi-writer; the single-writer oracle is silent
  }
  ++fleet_->counts_.kv_checks;
  auto it = model_.find(op.key);
  const bool known = it != model_.end();
  bool ok = true;
  switch (op.kind) {
    case KvOpKind::kGet:
      ok = res.found == known && (!known || res.value == it->second);
      break;
    case KvOpKind::kPut:
      ok = res.value == op.arg;
      model_[op.key] = op.arg;
      break;
    case KvOpKind::kAdd: {
      const uint64_t expect = (known ? it->second : 0) + op.arg;
      ok = res.value == expect;
      model_[op.key] = expect;
      break;
    }
  }
  if (!ok) {
    ++fleet_->counts_.kv_mismatches;
  }
}

KvOp TxnClient::DrawOpFor(uint32_t shard) {
  const TxnWorkloadOptions& opts = fleet_->opts_;
  KvOp op;
  op.key = DrawPrivateKey(shard);
  const uint64_t pct = rng_.Below(100);
  if (pct < opts.get_pct) {
    op.kind = KvOpKind::kGet;
  } else if (pct < opts.get_pct + opts.put_pct) {
    op.kind = KvOpKind::kPut;
    op.arg = rng_.Below(1000000);
  } else {
    op.kind = KvOpKind::kAdd;
    op.arg = 1 + rng_.Below(100);
  }
  return op;
}

uint64_t TxnClient::DrawPrivateKey(uint32_t shard) {
  const auto& bucket = shard_keys_.at(shard);
  return bucket[rng_.Below(bucket.size())];
}

// ---------------------------------------------------------------------------
// TxnFleet

TxnFleet::TxnFleet(ShardedDeployment* owner, ReplicaId base_id,
                   uint32_t clients, uint32_t cross_pct,
                   TxnWorkloadOptions opts)
    : owner_(owner), opts_(opts), cross_pct_(cross_pct) {
  // Shared hot keys, grouped by the shard the router assigns them.
  hot_by_shard_.resize(owner_->shards());
  for (uint32_t h = 0; h < opts_.hot_keys; ++h) {
    const uint64_t key = (uint64_t{1} << 63) | h;
    hot_by_shard_[RouteKey(key)].push_back(key);
  }
  Rng root(opts_.seed ^ 0x7e2d1c5f3b4a6908ULL);
  clients_.reserve(clients);
  for (uint32_t i = 0; i < clients; ++i) {
    clients_.push_back(
        std::make_unique<TxnClient>(base_id + i, i, this, root.Fork()));
  }
}

void TxnFleet::Start() {
  const SimTime now = sim().now();
  for (auto& client : clients_) {
    client->Start(now);
  }
}

// The client partition's scheduler when the deployment is partitioned (all
// client timers, pool allocations, and cancels stay partition-local); the
// shared simulator otherwise.
Simulator& TxnFleet::sim() { return owner_->ClientSim(); }

uint32_t TxnFleet::owner_shards() const { return owner_->shards(); }

uint32_t TxnFleet::replicas_per_shard() const {
  return owner_->replicas_per_shard();
}

uint32_t TxnFleet::RouteKey(uint64_t key) const {
  return owner_->router().ShardOf(key);
}

ReplicaId TxnFleet::RouteShard(uint32_t shard) { return owner_->Route(shard); }

ReplicaId TxnFleet::CoordinatorId(uint32_t shard) const {
  return owner_->coordinator_id(shard);
}

uint32_t TxnFleet::RepliesNeeded(uint32_t shard) {
  return owner_->RepliesNeeded(shard);
}

void TxnFleet::Send(uint32_t shard, ReplicaId from, ReplicaId to,
                    MessagePtr msg) {
  owner_->shard(shard).net().Send(from, to, std::move(msg));
}

TxnReport TxnFleet::Report() const {
  TxnReport report = counts_;
  report.enabled = true;
  report.committed_per_sec = committed_txns_.per_second();
  report.single_mean_ms = single_latency_.stat().mean();
  report.single_p50_ms = single_latency_.Percentile(50.0);
  report.single_p95_ms = single_latency_.Percentile(95.0);
  report.single_p99_ms = single_latency_.Percentile(99.0);
  report.cross_mean_ms = cross_latency_.stat().mean();
  report.cross_shard_p50_ms = cross_latency_.Percentile(50.0);
  report.cross_shard_p95_ms = cross_latency_.Percentile(95.0);
  report.cross_shard_p99_ms = cross_latency_.Percentile(99.0);
  return report;
}

}  // namespace optilog
