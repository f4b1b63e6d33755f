// The replicated-state-machine subsystem (src/statemachine/): KV machine
// determinism, checkpoint byte-equality across replicas in both protocol
// families, log truncation invariants, and crash-recovery state transfer.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/api/deployment.h"
#include "src/runner/scenario.h"
#include "src/statemachine/group.h"
#include "src/statemachine/replica_rsm.h"
#include "src/statemachine/state_machine.h"

namespace optilog {
namespace {

// --- KvStateMachine ----------------------------------------------------------

Bytes Op(KvOpKind kind, uint64_t key, uint64_t arg = 0) {
  KvOp op;
  op.kind = kind;
  op.key = key;
  op.arg = arg;
  return op.Encode();
}

KvResult Apply(StateMachine& sm, KvOpKind kind, uint64_t key,
               uint64_t arg = 0) {
  KvResult res;
  EXPECT_TRUE(KvResult::Decode(sm.Apply(Op(kind, key, arg)), &res));
  return res;
}

TEST(KvStateMachine, OperationsAndResults) {
  KvStateMachine sm;
  KvResult res = Apply(sm, KvOpKind::kGet, 7);
  EXPECT_FALSE(res.found);

  res = Apply(sm, KvOpKind::kPut, 7, 42);
  EXPECT_FALSE(res.found);  // fresh key
  EXPECT_EQ(res.value, 42u);

  res = Apply(sm, KvOpKind::kGet, 7);
  EXPECT_TRUE(res.found);
  EXPECT_EQ(res.value, 42u);

  res = Apply(sm, KvOpKind::kAdd, 7, 8);
  EXPECT_TRUE(res.found);
  EXPECT_EQ(res.value, 50u);

  res = Apply(sm, KvOpKind::kAdd, 9, 5);  // RMW on an absent key starts at 0
  EXPECT_FALSE(res.found);
  EXPECT_EQ(res.value, 5u);
}

TEST(KvStateMachine, SnapshotRestoreRoundTripAndDigest) {
  KvStateMachine a;
  Apply(a, KvOpKind::kPut, 1, 10);
  Apply(a, KvOpKind::kPut, 2, 20);
  Apply(a, KvOpKind::kAdd, 1, 5);

  KvStateMachine b;
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  b.Restore(a.SnapshotBytes());
  EXPECT_EQ(a.SnapshotBytes(), b.SnapshotBytes());
  EXPECT_EQ(a.StateDigest(), b.StateDigest());

  Apply(b, KvOpKind::kPut, 3, 30);
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  b.Reset();
  EXPECT_EQ(b.size(), 0u);
}

TEST(KvStateMachine, MalformedOpIsADeterministicNoop) {
  KvStateMachine sm;
  const Digest before = sm.StateDigest();
  KvResult res;
  ASSERT_TRUE(KvResult::Decode(sm.Apply(Bytes{0xff, 0x01}), &res));
  EXPECT_FALSE(res.found);
  EXPECT_EQ(sm.StateDigest(), before);
}

// A std::map reference model of the KV machine, kept only here: the machine
// itself stores its keys in a hash table, and must agree with this model on
// every result and on the sorted snapshot encoding.
struct RefKv {
  std::map<uint64_t, uint64_t> kv;

  KvResult Apply(const KvOp& op) {
    KvResult res;
    auto it = kv.find(op.key);
    res.found = it != kv.end();
    switch (op.kind) {
      case KvOpKind::kGet:
        res.value = res.found ? it->second : 0;
        break;
      case KvOpKind::kPut:
        kv[op.key] = op.arg;
        res.value = op.arg;
        break;
      case KvOpKind::kAdd:
        res.value = kv[op.key] += op.arg;
        break;
    }
    return res;
  }

  Bytes Snapshot() const {
    Bytes out;
    ByteWriter w(&out);
    w.U64(kv.size());
    for (const auto& [key, value] : kv) {
      w.U64(key);
      w.U64(value);
    }
    return out;
  }
};

TEST(KvStateMachine, MatchesOrderedMapReference) {
  Rng rng(1609);
  // Keys: both extremes plus the workload's client << 20 | i shape, fresh
  // keys drawn often enough to grow the table from 16 to 4096 slots (more
  // than 1024 keys, at most half the slots in use).
  std::vector<uint64_t> keys = {0, UINT64_MAX};
  KvStateMachine sm;
  RefKv ref;
  for (int step = 0; step < 4000; ++step) {
    if (rng.Bernoulli(0.6)) {
      keys.push_back(rng.Below(64) << 20 | rng.Below(1 << 20));
    }
    KvOp op;
    op.kind = static_cast<KvOpKind>(rng.Below(3));
    op.key = keys[rng.Below(keys.size())];
    op.arg = rng.Bernoulli(0.1) ? UINT64_MAX : rng.Below(1000);
    KvResult got;
    ASSERT_TRUE(KvResult::Decode(sm.Apply(op.Encode()), &got));
    const KvResult want = ref.Apply(op);
    ASSERT_EQ(got.found, want.found) << "step " << step;
    ASSERT_EQ(got.value, want.value) << "step " << step;
    ASSERT_EQ(sm.size(), ref.kv.size()) << "step " << step;
    ASSERT_EQ(sm.SnapshotBytes(), ref.Snapshot()) << "step " << step;
  }
  ASSERT_GT(sm.size(), 1024u);
  const std::vector<std::pair<uint64_t, uint64_t>> sorted(ref.kv.begin(), ref.kv.end());
  EXPECT_EQ(sm.state(), sorted);

  KvStateMachine copy;
  copy.Restore(sm.SnapshotBytes());
  EXPECT_EQ(copy.size(), sm.size());
  EXPECT_EQ(copy.SnapshotBytes(), sm.SnapshotBytes());
  EXPECT_EQ(copy.StateDigest(), sm.StateDigest());
  for (uint64_t key : {uint64_t{0}, UINT64_MAX, keys.back(), uint64_t{12345}}) {
    const KvResult a = Apply(copy, KvOpKind::kGet, key);
    const KvResult b = ref.Apply(KvOp{KvOpKind::kGet, key, 0});
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.value, b.value);
  }

  copy.Reset();
  EXPECT_EQ(copy.size(), 0u);
  EXPECT_EQ(copy.SnapshotBytes(), KvStateMachine().SnapshotBytes());
  EXPECT_FALSE(Apply(copy, KvOpKind::kGet, keys.back()).found);
}

TEST(KvStateMachine, RestoreKeepsTheFirstOfDuplicateKeys) {
  Bytes snapshot;
  ByteWriter w(&snapshot);
  const std::pair<uint64_t, uint64_t> entries[] = {{5, 1}, {5, 2}, {7, 3}};
  w.U64(std::size(entries));
  for (const auto& [key, value] : entries) {
    w.U64(key);
    w.U64(value);
  }
  KvStateMachine sm;
  sm.Restore(snapshot);
  EXPECT_EQ(sm.size(), 2u);
  EXPECT_EQ(Apply(sm, KvOpKind::kGet, 5).value, 1u);
  EXPECT_EQ(Apply(sm, KvOpKind::kGet, 7).value, 3u);
}

TEST(KvStateMachine, TxnRecordsMatchOrderedMapReference) {
  // kMulti, then a prepare/commit/end round per transaction on disjoint
  // keys: the key table sees the same ops as the reference, in order.
  Rng rng(77);
  KvStateMachine sm;
  RefKv ref;
  auto draw_ops = [&](uint64_t client) {
    std::vector<KvOp> ops;
    for (uint64_t i = 0; i < 3; ++i) {
      ops.push_back(KvOp{static_cast<KvOpKind>(rng.Below(3)),
                         client << 20 | (i * 7 + rng.Below(4)), rng.Below(50)});
    }
    return ops;
  };
  auto expect_results = [&](const Bytes& reply, const std::vector<KvOp>& ops) {
    KvMultiResult got;
    ASSERT_TRUE(KvMultiResult::Decode(reply, &got));
    ASSERT_TRUE(got.ok);
    ASSERT_EQ(got.results.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      const KvResult want = ref.Apply(ops[i]);
      EXPECT_EQ(got.results[i].found, want.found);
      EXPECT_EQ(got.results[i].value, want.value);
    }
  };
  for (uint64_t txn_id = 1; txn_id <= 200; ++txn_id) {
    KvTxnOp multi;
    multi.tag = TxnTag::kMulti;
    multi.ops = draw_ops(txn_id % 5);
    expect_results(sm.Apply(multi.Encode()), multi.ops);

    KvTxnOp prepare;
    prepare.tag = TxnTag::kPrepare;
    prepare.txn_id = txn_id;
    prepare.ops = draw_ops(100 + txn_id % 3);
    KvMultiResult vote;
    ASSERT_TRUE(KvMultiResult::Decode(sm.Apply(prepare.Encode()), &vote));
    ASSERT_TRUE(vote.ok);
    EXPECT_FALSE(sm.locks().empty());

    KvTxnOp commit;
    commit.tag = TxnTag::kCommit;
    commit.txn_id = txn_id;
    expect_results(sm.Apply(commit.Encode()), prepare.ops);

    KvTxnOp end;
    end.tag = TxnTag::kEnd;
    end.txn_id = txn_id;
    sm.Apply(end.Encode());
    ASSERT_TRUE(sm.locks().empty());
    ASSERT_EQ(sm.size(), ref.kv.size());
    ASSERT_EQ(sm.SnapshotBytes(), ref.Snapshot()) << "txn " << txn_id;
  }
}

// --- Log truncation ----------------------------------------------------------

LogEntry CommandEntry(uint32_t batch, uint8_t tag) {
  LogEntry e;
  e.kind = EntryKind::kCommandBatch;
  e.batch_size = batch;
  e.payload = {tag};
  return e;
}

TEST(LogTruncation, ChainHeadIsInvariantToTruncationPoints) {
  // Three logs, same appends, truncated at different points (or never):
  // the chain head must be byte-identical regardless.
  Log never, early, late;
  for (uint8_t i = 0; i < 12; ++i) {
    never.Append(CommandEntry(10, i));
    early.Append(CommandEntry(10, i));
    late.Append(CommandEntry(10, i));
    if (i == 3) {
      early.TruncateTo(4);
    }
    if (i == 9) {
      late.TruncateTo(8);
    }
  }
  EXPECT_EQ(never.head(), early.head());
  EXPECT_EQ(never.head(), late.head());
  EXPECT_EQ(never.next_index(), early.next_index());

  EXPECT_EQ(early.base_index(), 4u);
  EXPECT_EQ(early.size(), 8u);
  EXPECT_EQ(late.base_index(), 8u);
  EXPECT_EQ(late.size(), 4u);
  // base_head records the chain at the cut; appends continue from head().
  EXPECT_EQ(early.base_head(), never.HeadAt(3));
  EXPECT_EQ(late.base_head(), never.HeadAt(7));
}

TEST(LogTruncation, EntryAtIsBaseOffsetAware) {
  Log log;
  for (uint8_t i = 0; i < 10; ++i) {
    log.Append(CommandEntry(1, i));
  }
  log.TruncateTo(6);
  EXPECT_FALSE(log.Has(5));
  ASSERT_TRUE(log.Has(6));
  EXPECT_EQ(log.EntryAt(6).index, 6u);
  EXPECT_EQ(log.EntryAt(9).payload, Bytes{9});
  EXPECT_EQ(log.next_index(), 10u);
  // Appends after truncation keep absolute indexing.
  log.Append(CommandEntry(1, 10));
  EXPECT_EQ(log.EntryAt(10).index, 10u);
  EXPECT_EQ(log.peak_size(), 10u);  // high-water mark predates truncation
  EXPECT_EQ(log.truncations(), 1u);
}

TEST(LogTruncation, ResetToBaseContinuesTheDonorChain) {
  Log donor;
  for (uint8_t i = 0; i < 8; ++i) {
    donor.Append(CommandEntry(2, i));
  }
  // A recovering replica adopts the chain position at index 4 and replays
  // the suffix; heads must converge entry by entry.
  Log recovered;
  recovered.ResetToBase(5, donor.HeadAt(4));
  for (uint64_t i = 5; i < 8; ++i) {
    recovered.Append(donor.EntryAt(i));
    EXPECT_EQ(recovered.head(), donor.HeadAt(i));
  }
  EXPECT_EQ(recovered.head(), donor.head());
}

// --- FaultModel recovery window ----------------------------------------------

TEST(FaultWindow, IsCrashedHonorsCrashRecoverWindow) {
  FaultModel faults;
  faults.Mutable(1).crash_at = 1000;
  faults.Mutable(1).recover_at = 5000;
  EXPECT_FALSE(faults.IsCrashedAt(1, 999));
  EXPECT_TRUE(faults.IsCrashedAt(1, 1000));
  EXPECT_TRUE(faults.IsCrashedAt(1, 4999));
  EXPECT_FALSE(faults.IsCrashedAt(1, 5000));
  EXPECT_FALSE(faults.IsCrashedAt(1, 9999));
  // Without recover_at the crash stays a one-way door.
  faults.Mutable(2).crash_at = 1000;
  EXPECT_TRUE(faults.IsCrashedAt(2, 1'000'000'000));
}

// Delivery semantics across the window, loopback included (the PR-2
// SendSelf crash-at-delivery contract extended to recovery).
struct RecordingActor : Actor {
  void OnMessage(ReplicaId, const MessagePtr&, SimTime at) override {
    deliveries.push_back(at);
  }
  std::vector<SimTime> deliveries;
};

struct PingMsg : Message {
  int type() const override { return 99; }
  MsgFamily family() const override { return MsgFamily::kState; }
  void EncodeTo(ByteWriter& w) const override { w.ZeroPad(8); }
  std::string Name() const override { return "Ping"; }
};

TEST(FaultWindow, DeliveriesResumeAfterRecovery) {
  Simulator sim;
  FaultModel faults;
  MatrixLatencyModel latency(2, /*one_way=*/100);
  Network net(&sim, &latency, &faults);
  RecordingActor a0, a1;
  net.Register(0, &a0);
  net.Register(1, &a1);
  faults.Mutable(1).crash_at = 500;
  faults.Mutable(1).recover_at = 1500;

  // Lands at 100: before the window — delivered.
  net.Send(0, 1, MakeMessage<PingMsg>());
  sim.RunUntil(900);
  // Sent at 900, lands at 1000: inside the window — dropped.
  net.Send(0, 1, MakeMessage<PingMsg>());
  sim.RunUntil(1600);
  // Sent at 1600 (after recovery), lands at 1700 — delivered.
  net.Send(0, 1, MakeMessage<PingMsg>());
  // Loopback honors the same window: self-send at 1700 delivered, and the
  // crashed replica's own loopback inside the window would have been
  // dropped at source.
  sim.RunUntil(1700);
  net.SendSelf(1, MakeMessage<PingMsg>());
  sim.RunUntil(2000);

  ASSERT_EQ(a1.deliveries.size(), 3u);
  EXPECT_EQ(a1.deliveries[0], 100u);
  EXPECT_EQ(a1.deliveries[1], 1700u);
  EXPECT_EQ(a1.deliveries[2], 1700u);
}

// --- checkpoint determinism across replicas ----------------------------------

WorkloadOptions ClosedLoopKv() {
  WorkloadOptions w;
  w.arrival = ArrivalProcess::kClosedLoop;
  w.outstanding = 1;
  w.think_time = 10 * kMsec;
  w.retry_timeout = 800 * kMsec;
  w.batch.max_batch = 32;
  w.batch.max_delay = 5 * kMsec;
  return w;
}

StateMachineOptions CheckpointedEvery(uint64_t interval, bool truncate,
                                      bool history) {
  StateMachineOptions opts;
  opts.checkpoint.interval = interval;
  opts.checkpoint.truncate = truncate;
  opts.checkpoint.keep_history = history;
  return opts;
}

// Every replica that stayed live must hold byte-identical checkpoints at
// every checkpoint index, and matching state digests at the frontier.
void ExpectCheckpointsIdentical(Deployment& d) {
  const RsmGroup* group = d.state_machines();
  ASSERT_NE(group, nullptr);
  const auto& reference = group->rsm(0).checkpoint_history();
  ASSERT_FALSE(reference.empty()) << "run too short: no checkpoints taken";
  for (ReplicaId id = 1; id < d.n(); ++id) {
    const auto& mine = group->rsm(id).checkpoint_history();
    // PBFT replicas may lag by in-flight instances; compare the shared
    // prefix of checkpoint histories.
    const size_t common = std::min(reference.size(), mine.size());
    ASSERT_GE(common, 1u);
    for (size_t k = 0; k < common; ++k) {
      EXPECT_EQ(mine[k].through_index, reference[k].through_index);
      EXPECT_EQ(mine[k].state_digest, reference[k].state_digest);
      EXPECT_EQ(mine[k].log_head, reference[k].log_head);
      EXPECT_EQ(mine[k].state, reference[k].state)
          << "snapshot bytes diverge at checkpoint " << k;
    }
  }
}

TEST(CheckpointDeterminism, MiniKauriIdenticalSnapshotsEverywhere) {
  auto d = Deployment::Builder()
               .WithReplicas(7, 2)
               .WithProtocol(Protocol::kKauri)
               .WithSeed(11)
               .WithWorkload(ClosedLoopKv())
               .WithStateMachine(CheckpointedEvery(4, /*truncate=*/true,
                                                   /*history=*/true))
               .Build();
  d->Start();
  d->RunUntil(8 * kSec);
  ExpectCheckpointsIdentical(*d);

  const MetricsReport m = d->Metrics();
  EXPECT_TRUE(m.statemachine.enabled);
  EXPECT_GT(m.statemachine.applied, 0u);
  EXPECT_GT(m.statemachine.checkpoints, 0u);
  EXPECT_EQ(m.statemachine.digests_equal, 1u);
  EXPECT_EQ(m.statemachine.state_digest_hex.size(), 64u);
  EXPECT_GT(m.workload.kv_checks, 0u);
  EXPECT_EQ(m.workload.kv_mismatches, 0u);
}

TEST(CheckpointDeterminism, MiniPbftIdenticalSnapshotsEverywhere) {
  auto d = Deployment::Builder()
               .WithReplicas(7, 2)
               .WithProtocol(Protocol::kPbft)
               .WithSeed(12)
               .WithWorkload(ClosedLoopKv())
               .WithStateMachine(CheckpointedEvery(4, /*truncate=*/true,
                                                   /*history=*/true))
               .Build();
  d->Start();
  d->RunUntil(8 * kSec);
  ExpectCheckpointsIdentical(*d);

  const MetricsReport m = d->Metrics();
  EXPECT_GT(m.statemachine.applied, 0u);
  EXPECT_EQ(m.statemachine.digests_equal, 1u);
  EXPECT_GT(m.workload.kv_checks, 0u);
  EXPECT_EQ(m.workload.kv_mismatches, 0u);
}

TEST(CheckpointDeterminism, TruncationBoundsPeakLogMemory) {
  auto base = Deployment::Builder()
                  .WithReplicas(7, 2)
                  .WithProtocol(Protocol::kKauri)
                  .WithSeed(13)
                  .WithWorkload(ClosedLoopKv());
  auto bounded = base.Clone()
                     .WithStateMachine(CheckpointedEvery(8, true, false))
                     .Build();
  auto unbounded = base.Clone()
                       .WithStateMachine(CheckpointedEvery(8, false, false))
                       .Build();
  for (auto* d : {bounded.get(), unbounded.get()}) {
    d->Start();
    d->RunUntil(10 * kSec);
  }
  const MetricsReport mb = bounded->Metrics();
  const MetricsReport mu = unbounded->Metrics();
  // Identical schedule (truncation never changes execution)...
  EXPECT_EQ(mb.statemachine.applied, mu.statemachine.applied);
  EXPECT_EQ(mb.statemachine.state_digest_hex, mu.statemachine.state_digest_hex);
  ASSERT_GT(mu.statemachine.applied, 16u) << "run too short to show the bound";
  // ...but bounded memory: peak in-memory entries never exceed one interval
  // plus the entries since the last checkpoint, while the untruncated log
  // grows with the run.
  EXPECT_LE(mb.statemachine.peak_log_entries, 2 * 8u);
  EXPECT_EQ(mu.statemachine.peak_log_entries, mu.statemachine.applied);
  EXPECT_GT(mb.statemachine.truncations, 0u);
  EXPECT_EQ(mu.statemachine.truncations, 0u);
}

// --- crash recovery ----------------------------------------------------------

TEST(Recovery, TreeReplicaRejoinsViaSnapshotAndSuffix) {
  const SimTime crash_at = 4 * kSec;
  const SimTime recover_at = 10 * kSec;
  ReplicaId victim = kNoReplica;
  auto d = Deployment::Builder()
               .WithReplicas(7, 2)
               .WithProtocol(Protocol::kOptiTree)
               .WithSeed(21)
               .WithInitialSearch(AnnealingParams::ForBudget(2000))
               .WithOptiLogReconfig(/*search_window=*/500 * kMsec)
               .WithWorkload(ClosedLoopKv())
               .WithStateMachine(CheckpointedEvery(8, true, false))
               .WithFaults([&](Deployment& dep) {
                 victim = dep.tree().topology().root();
                 dep.faults().Mutable(victim).crash_at = crash_at;
                 dep.faults().Mutable(victim).recover_at = recover_at;
               })
               .Build();
  d->Start();
  d->RunUntil(25 * kSec);

  const MetricsReport m = d->Metrics();
  EXPECT_EQ(m.statemachine.recoveries_started, 1u);
  EXPECT_EQ(m.statemachine.recoveries_completed, 1u);
  EXPECT_GT(m.statemachine.transfer_bytes, 0u);
  EXPECT_GT(m.statemachine.transfer_chunks, 0u);
  EXPECT_GT(m.statemachine.catchup_ms_max, 0.0);
  // The recovered replica holds the same state as everyone else.
  EXPECT_EQ(m.statemachine.digests_equal, 1u);
  ASSERT_NE(victim, kNoReplica);
  EXPECT_EQ(d->state_machines()->rsm(victim).applied(), m.statemachine.applied);
  EXPECT_EQ(m.workload.kv_mismatches, 0u);
}

TEST(Recovery, PbftReplicaRejoinsAndCatchesUp) {
  auto d = Deployment::Builder()
               .WithReplicas(7, 2)
               .WithProtocol(Protocol::kPbft)
               .WithSeed(22)
               .WithWorkload(ClosedLoopKv())
               .WithStateMachine(CheckpointedEvery(8, true, false))
               .WithFaults([](Deployment& dep) {
                 dep.faults().Mutable(3).crash_at = 3 * kSec;
                 dep.faults().Mutable(3).recover_at = 8 * kSec;
               })
               .Build();
  d->Start();
  d->RunUntil(20 * kSec);

  const MetricsReport m = d->Metrics();
  EXPECT_EQ(m.statemachine.recoveries_started, 1u);
  EXPECT_EQ(m.statemachine.recoveries_completed, 1u);
  EXPECT_GT(m.statemachine.transfer_bytes, 0u);
  EXPECT_EQ(m.statemachine.digests_equal, 1u);
  // The recovered replica reached (at least) every decided instance that
  // is stable across the cluster.
  const uint64_t victim_applied = d->state_machines()->rsm(3).applied();
  EXPECT_GT(victim_applied, 0u);
  EXPECT_EQ(m.workload.kv_mismatches, 0u);
}

TEST(Recovery, RunsAreDeterministic) {
  auto run = [] {
    auto d = Deployment::Builder()
                 .WithReplicas(7, 2)
                 .WithProtocol(Protocol::kPbft)
                 .WithSeed(33)
                 .WithWorkload(ClosedLoopKv())
                 .WithStateMachine(CheckpointedEvery(8, true, false))
                 .WithFaults([](Deployment& dep) {
                   dep.faults().Mutable(2).crash_at = 3 * kSec;
                   dep.faults().Mutable(2).recover_at = 7 * kSec;
                 })
                 .Build();
    d->Start();
    d->RunUntil(15 * kSec);
    return MetricsFingerprint(d->Metrics());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace optilog
