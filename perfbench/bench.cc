// perfbench: the repository benchmark. Runs one workload for a host-time
// budget and prints one JSON result line (see README.md for the contract).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 repeats the workload untraced until the budget is spent and
// reports the end-to-end host metrics (medians over the repetitions).
// --trace 1 runs the workload twice from the same seed, untraced and then
// under the flight recorder, and reports the per-layer metrics: exact counts
// from Metrics() and the executor, host timings of slices and of each
// layer's public functions called from outside on the run's final state,
// the stage breakdown of the trace, and the simulated outcome metrics.
// shard_txn runs a third time, on the windowed PDES driver.
//
// Every repetition passes the correctness gates (KV oracle, replica digest
// agreement, attack mitigated, candidate set not starved, tracing
// neutral) or the run is reported incorrect and exits 1. Each
// repetition's fingerprint is printed so behaviour changes are visible.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/api/deployment.h"
#include "src/aware/aware_score.h"
#include "src/core/mis.h"
#include "src/core/misbehavior_monitor.h"
#include "src/core/suspicion_monitor.h"
#include "src/crypto/cost_model.h"
#include "src/crypto/sha256.h"
#include "src/hotstuff/messages.h"
#include "src/obs/stage_breakdown.h"
#include "src/pbft/messages.h"
#include "src/runner/scenario.h"
#include "src/shard/sharded_deployment.h"
#include "src/statemachine/state_machine.h"
#include "src/tree/kauri.h"
#include "src/tree/tree_score.h"
#include "src/util/check.h"
#include "src/wire/codec.h"
#include "src/workload/messages.h"

namespace optilog {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Nearest-rank percentile of host samples; 0 for an empty sample.
double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t mid = s.size() / 2;
  return s.size() % 2 == 1 ? s[mid] : (s[mid - 1] + s[mid]) / 2.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Host ns per call of `op`, repeated until at least 5 ms of work is timed.
// The sink keeps the optimizer from dropping the measured calls.
volatile double g_sink = 0.0;
double NsPerCall(const std::function<double(uint64_t)>& op) {
  for (uint64_t i = 0; i < 8; ++i) {
    g_sink = g_sink + op(i);
  }
  uint64_t iters = 16;
  for (;;) {
    const auto t0 = Clock::now();
    double acc = 0.0;
    for (uint64_t i = 0; i < iters; ++i) {
      acc += op(i);
    }
    const double ns = SecondsSince(t0) * 1e9;
    g_sink = g_sink + acc;
    if (ns >= 5e6 || iters >= (uint64_t{1} << 24)) {
      return ns / static_cast<double>(iters);
    }
    iters *= 4;
  }
}

// --- one repetition -----------------------------------------------------------

enum class Mode {
  kSetup,   // build and start only: the set-up time samples
  kPlain,   // untraced, end-to-end timing only
  kDetail,  // untraced, plus the per-layer counts and micro-timings
  kTraced,  // under the flight recorder: fingerprint + stage breakdown
  kWindowed,  // untraced, on the windowed parallel PDES driver (shard_txn)
};

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;             // host seconds over all steps
  std::vector<double> step_ms;    // host ms per simulated second / decision
  std::vector<double> step_units; // work units in each step (see kEndToEnd)
  std::string fingerprint;
  std::vector<std::string> errors;  // failed correctness gates
  uint64_t attempted = 0;
  uint64_t lost = 0;  // operations that failed for good
  // Per-layer and simulated outcome metrics (kDetail / kTraced).
  std::map<std::string, double> layer;
};

void Gate(Rep& rep, bool ok, const std::string& what) {
  if (!ok) {
    rep.errors.push_back(what);
  }
}

uint64_t EventsExecuted(Deployment& d) {
  return d.sim().event_core_stats().events_executed;
}

uint64_t EventsExecuted(ShardedDeployment& d) {
  uint64_t events = 0;
  for (uint32_t s = 0; s < d.shards(); ++s) {
    events += d.ShardSim(s).event_core_stats().events_executed;
  }
  if (d.partitions() > d.shards()) {
    events += d.ClientSim().event_core_stats().events_executed;
  }
  return events;
}

// Runs to `horizon` in steps of one simulated second, timing each step and
// counting the events it executed.
template <typename D>
void RunSliced(D& d, SimTime horizon, Rep& rep) {
  uint64_t before = EventsExecuted(d);
  for (SimTime t = kSec; t <= horizon; t += kSec) {
    const auto t0 = Clock::now();
    d.RunUntil(t);
    const double s = SecondsSince(t0);
    const uint64_t after = EventsExecuted(d);
    rep.run_s += s;
    rep.step_ms.push_back(s * 1e3);
    rep.step_units.push_back(static_cast<double>(after - before));
    before = after;
  }
}

std::vector<ReplicaId> AllReplicas(uint32_t n) {
  std::vector<ReplicaId> all(n);
  for (ReplicaId id = 0; id < n; ++id) {
    all[id] = id;
  }
  return all;
}

// Layer metrics every deployment workload fills from its MetricsReport.
void FillReportLayers(Rep& rep, const MetricsReport& m, bool tree_family,
                      double completed_ops) {
  auto& L = rep.layer;
  const EventCoreStats& ec = m.event_core;
  L["sim.events"] = static_cast<double>(ec.events_executed);
  L["sim.host_ns_per_event"] =
      Ratio(rep.run_s * 1e9, static_cast<double>(ec.events_executed));
  L["sim.closure_events"] = static_cast<double>(ec.closure_events);
  L["sim.pool_hit_ratio"] =
      Ratio(static_cast<double>(ec.message_pool_hits),
            static_cast<double>(ec.message_pool_hits + ec.message_pool_misses));
  L["sim.peak_pending"] = static_cast<double>(ec.peak_pending);
  L["sim.speed"] = Ratio(static_cast<double>(rep.step_ms.size()), rep.run_s);
  L["sim.slice_ms_p50"] = Percentile(rep.step_ms, 50);
  L["sim.slice_ms_p90"] = Percentile(rep.step_ms, 90);
  L["net.messages"] = static_cast<double>(m.wire_messages);
  L["net.bytes"] = static_cast<double>(m.wire_bytes);
  L["net.bytes_per_op"] = Ratio(static_cast<double>(m.wire_bytes), completed_ops);
  L["crypto.signs"] = static_cast<double>(m.crypto.signs);
  L["crypto.verifies"] = static_cast<double>(m.crypto.verifies);
  L["crypto.hashed_bytes"] = static_cast<double>(m.crypto.hashed_bytes);
  L["crypto.busy_ms_max"] = static_cast<double>(m.crypto.busy_ns_max_replica) / 1e6;
  const double batch_mean = Ratio(static_cast<double>(m.total_commands),
                                  static_cast<double>(m.committed));
  L[tree_family ? "hotstuff.batch_mean" : "pbft.batch_mean"] = batch_mean;
  if (tree_family) {
    L["hotstuff.failed_rounds"] = static_cast<double>(m.failed_rounds);
  }
  L["core.suspicions"] = static_cast<double>(m.suspicions);
  L["core.reconfigurations"] = static_cast<double>(m.reconfigurations);
  L["statemachine.applied"] = static_cast<double>(m.statemachine.applied);
  L["statemachine.peak_log_entries"] =
      static_cast<double>(m.statemachine.peak_log_entries);
  L["workload.retried"] = static_cast<double>(m.workload.requests_retried);
  L["workload.dropped"] = static_cast<double>(m.workload.requests_dropped);
  L["workload.peak_queue"] = static_cast<double>(m.workload.peak_queue_depth);
}

// Client-fleet outcome shared by aware_attack and tree_kv.
void FillFleetOutcome(Rep& rep, const MetricsReport& m, double horizon_s) {
  const WorkloadReport& w = m.workload;
  rep.attempted += w.requests_sent;
  rep.lost += w.requests_dropped + w.requests_abandoned;
  Gate(rep, w.enabled && w.requests_completed > 0, "no request completed");
  auto& L = rep.layer;
  L["commit_p50_ms"] = w.latency_p50_ms;
  L["commit_p99_ms"] = w.latency_p99_ms;
  L["goodput_ops"] = static_cast<double>(w.requests_completed) / horizon_s;
  L["fail_ratio"] = Ratio(static_cast<double>(w.requests_sent - w.requests_completed),
                          static_cast<double>(w.requests_sent));
}

void FillStages(Rep& rep, const std::vector<TraceRecord>& records) {
  const StageBreakdown sb = ComputeStageBreakdown(records);
  const double n = static_cast<double>(sb.requests);
  auto& L = rep.layer;
  L["obs.stage_client_net_ms"] = Ratio(sb.client_net_ms, n);
  L["obs.stage_queue_ms"] = Ratio(sb.queue_ms, n);
  L["obs.stage_batch_ms"] = Ratio(sb.batch_ms, n);
  L["obs.stage_consensus_ms"] = Ratio(sb.consensus_ms, n);
  L["obs.stage_apply_ms"] = Ratio(sb.apply_ms, n);
  L["obs.stage_reply_ms"] = Ratio(sb.reply_ms, n);
}

// Sensor-path functions timed on a workload's latency matrix: Coverage and
// the Aware config space (Valid, Score, accept timeouts). Without a live
// configuration or candidate set, a random config over all replicas.
void TimeSensorPath(Rep& rep, const LatencyMatrix& matrix, uint32_t n,
                    uint32_t f, const RoleConfig* aware_config,
                    const CandidateSet* candidates, uint64_t seed) {
  auto& L = rep.layer;
  L["core.coverage_ns"] = NsPerCall([&](uint64_t) { return matrix.Coverage(); });

  const AwareConfigSpace space(n, f);
  CandidateSet all;
  all.candidates = AllReplicas(n);
  const CandidateSet& cands = candidates != nullptr ? *candidates : all;
  Rng rng(seed);
  const RoleConfig config =
      aware_config != nullptr ? *aware_config : space.RandomConfig(cands, rng);
  const uint32_t u = cands.u;
  L["aware.valid_ns"] =
      NsPerCall([&](uint64_t) { return space.Valid(config, cands) ? 1.0 : 0.0; });
  L["aware.round_ns"] =
      NsPerCall([&](uint64_t) { return space.Score(config, matrix, u); });
  L["aware.accept_timeout_ns"] = NsPerCall([&](uint64_t i) {
    const ReplicaId from = static_cast<ReplicaId>(i % n);
    const ReplicaId to = static_cast<ReplicaId>((i / n + 1 + from) % n);
    return AwareAcceptTimeoutMs(config, space.scheme(), matrix, from, to, u);
  });
}

// The MIS the monitor runs, timed on its final suspicion graph over the
// replicas it has not declared crashed.
void TimeMis(Rep& rep, const SuspicionMonitor& monitor, uint32_t n) {
  std::vector<ReplicaId> live;
  for (ReplicaId id = 0; id < n; ++id) {
    if (!monitor.IsCrashed(id)) {
      live.push_back(id);
    }
  }
  std::vector<double> ms;
  for (int i = 0; i < 50; ++i) {
    const auto t0 = Clock::now();
    g_sink = g_sink + static_cast<double>(MaximumIndependentSet(monitor.graph(), live).size());
    ms.push_back(SecondsSince(t0) * 1e3);
  }
  rep.layer["core.monitor_ms_p50"] = Percentile(ms, 50);
  rep.layer["core.monitor_ms_p90"] = Percentile(ms, 90);
}

// SA over all replicas at the deployments' default 5000-iteration budget
// (what a deployment's set-up runs), and TreeScore of the result.
void TimeTreeSearch(Rep& rep, const LatencyMatrix& matrix, uint32_t n,
                    uint32_t f, uint64_t seed) {
  auto& L = rep.layer;
  const uint32_t k = 2 * f + 1;
  std::vector<double> anneal_ms;
  TreeTopology tree;
  for (int i = 0; i < 10; ++i) {
    Rng srng(seed + static_cast<uint64_t>(i));
    const auto t0 = Clock::now();
    tree = AnnealTree(n, AllReplicas(n), matrix, k, srng,
                      AnnealingParams::ForBudget(5000));
    anneal_ms.push_back(SecondsSince(t0) * 1e3);
  }
  L["tree.anneal_ms_p50"] = Percentile(anneal_ms, 50);
  L["tree.anneal_ms_p90"] = Percentile(anneal_ms, 90);
  L["tree.score_ns"] =
      NsPerCall([&](uint64_t) { return TreeScore(tree, matrix, k); });
}

// Encode/decode host ns, averaged over the workload's client request (with
// its own KV operation), the reply, and its protocol's vote message.
void TimeWire(Rep& rep, const Bytes& op, bool tree_family) {
  std::vector<MessagePtr> mix;
  auto req = MakeMessage<ClientRequestMsg>();
  req->client = 7;
  req->request_id = 12345;
  req->sent_at = 42 * kSec;
  req->payload_bytes = 64;
  req->op = op;
  mix.push_back(req);
  auto reply = MakeMessage<ClientReplyMsg>();
  reply->request_id = 12345;
  reply->seq = 678;
  reply->result = op;
  mix.push_back(reply);
  if (tree_family) {
    auto vote = MakeMessage<VoteMsg>();
    vote->view = 678;
    mix.push_back(vote);
  } else {
    auto phase = MakeMessage<PhaseMsg>();
    phase->seq = 678;
    mix.push_back(phase);
  }
  std::vector<Bytes> frames;
  for (const MessagePtr& m : mix) {
    frames.push_back(EncodeMessage(*m));
  }
  const size_t k = mix.size();
  rep.layer["wire.encode_ns"] = NsPerCall([&](uint64_t i) {
    return static_cast<double>(EncodeMessage(*mix[i % k]).size());
  });
  rep.layer["wire.decode_ns"] = NsPerCall([&](uint64_t i) {
    return DecodeMessage(frames[i % k]) != nullptr ? 1.0 : 0.0;
  });
}

// The default 25/50/25 get/put/RMW mix.
KvOp DrawOp(Rng& rng, const std::vector<uint64_t>& keys) {
  KvOp op;
  const uint64_t roll = rng.Below(100);
  op.kind = roll < 25 ? KvOpKind::kGet : roll < 75 ? KvOpKind::kPut : KvOpKind::kAdd;
  op.key = keys[rng.Below(keys.size())];
  op.arg = rng.Below(1000);
  return op;
}

// KvStateMachine::Apply timed on a copy of a replica's final state, over
// the workload's op mix on the run's own keys: single operations, or with
// `txn_keys` > 0 kMulti transactions of that many operations (the
// transaction fleet's write path). Also times the snapshot that makes the
// copy. Returns one encoded request for the codec timing.
Bytes TimeStateMachine(Rep& rep, const StateMachine& machine, uint32_t txn_keys,
                       uint64_t seed) {
  const auto t0 = Clock::now();
  const Bytes snapshot = machine.SnapshotBytes();
  rep.layer["statemachine.snapshot_ms"] = SecondsSince(t0) * 1e3;
  KvStateMachine copy;
  copy.Restore(snapshot);
  std::vector<uint64_t> keys;
  for (const auto& [key, value] : copy.state()) {
    keys.push_back(key);
  }
  if (keys.empty()) {
    keys.push_back(1);
  }
  Rng rng(seed);
  std::vector<Bytes> ops;
  for (uint64_t i = 0; i < 4096; ++i) {
    if (txn_keys == 0) {
      ops.push_back(DrawOp(rng, keys).Encode());
      continue;
    }
    KvTxnOp multi;
    multi.tag = TxnTag::kMulti;
    multi.client = 7;
    multi.client_req = i;
    for (uint32_t j = 0; j < txn_keys; ++j) {
      multi.ops.push_back(DrawOp(rng, keys));
    }
    ops.push_back(multi.Encode());
  }
  rep.layer["statemachine.apply_ns"] = NsPerCall([&](uint64_t i) {
    return static_cast<double>(copy.Apply(ops[i % ops.size()]).size());
  });
  return ops[0];
}

// Host cost of the crypto primitives the cost model charges for.
void TimeCrypto(Rep& rep) {
  const CryptoCostModel c = CryptoCostModel::Measure();
  rep.layer["crypto.sha256_ns_per_kb"] = c.hash_byte_ns * 1024.0;
  rep.layer["crypto.hmac_ns"] = c.sign_ns;
}

// --- workloads ---------------------------------------------------------------

constexpr double kAttackAtS = 82.0;

// Fig. 7: OptiAware on Europe21 (delta 1.5), optimizing at 40 s; the leader
// adds an 800 ms Pre-Prepare delay with fast probes at 82 s.
Rep RunAwareAttack(uint64_t seed, Mode mode) {
  constexpr SimTime kHorizon = 180 * kSec;
  Rep rep;
  const auto t0 = Clock::now();
  PbftOptions opts;
  opts.delta = 1.5;
  opts.optimize_at = 40 * kSec;
  Deployment::Builder b;
  b.WithGeo(Europe21())
      .WithProtocol(Protocol::kOptiAware)
      .WithPbftOptions(opts)
      .WithSeed(seed);
  if (mode == Mode::kTraced) {
    b.WithTrace();
  }
  auto d = b.Build();
  Deployment& dr = *d;
  dr.sim().ScheduleAt(static_cast<SimTime>(kAttackAtS) * kSec, [&dr] {
    auto& f = dr.faults().Mutable(dr.pbft().config().leader);
    f.proposal_delay = 800 * kMsec;
    f.fast_probes = true;
  });
  d->Start();
  rep.setup_s = SecondsSince(t0);
  if (mode == Mode::kSetup) {
    return rep;
  }
  RunSliced(*d, kHorizon, rep);

  const MetricsReport m = d->Metrics();
  rep.fingerprint = MetricsFingerprint(m);
  FillFleetOutcome(rep, m, ToSec(kHorizon));
  const bool mitigated = !m.reconfig_times.empty() &&
                         ToSec(m.reconfig_times.back()) > kAttackAtS;
  Gate(rep, mitigated, "no reconfiguration after the 82 s attack");
  rep.layer["mitigation_s"] =
      mitigated ? ToSec(m.reconfig_times.back()) - kAttackAtS : 0.0;
  if (mode == Mode::kDetail) {
    FillReportLayers(rep, m, /*tree_family=*/false,
                     static_cast<double>(m.workload.requests_completed));
    const SuspicionMonitor& monitor = d->pipeline()->suspicion_monitor();
    const CandidateSet& cands = monitor.Current();
    rep.layer["core.candidates"] = static_cast<double>(cands.candidates.size());
    rep.layer["core.u"] = cands.u;
    TimeMis(rep, monitor, d->n());
    const RoleConfig config = d->pbft().config();
    TimeSensorPath(rep, d->pbft().matrix(), d->n(), d->f(), &config, &cands, seed);
    TimeTreeSearch(rep, d->pbft().matrix(), d->n(), d->f(), seed);
    TimeWire(rep, Bytes{}, /*tree_family=*/false);
  }
  if (mode == Mode::kTraced) {
    FillStages(rep, d->TraceRecords());
  }
  return rep;
}

// OptiTree on Global73: pipeline depth 3, calibrated crypto costs, a KV
// state machine checkpointing every 256 entries, 400 closed-loop clients.
Rep RunTreeKv(uint64_t seed, Mode mode) {
  constexpr SimTime kHorizon = 60 * kSec;
  Rep rep;
  const auto t0 = Clock::now();
  WorkloadOptions w;
  w.clients = 400;
  w.arrival = ArrivalProcess::kClosedLoop;
  w.outstanding = 1;
  w.record_samples = false;
  TreeRsmOptions topts;
  topts.pipeline_depth = 3;
  StateMachineOptions sm;
  sm.checkpoint.interval = 256;
  sm.checkpoint.truncate = true;
  Deployment::Builder b;
  b.WithGeo(Global73())
      .WithProtocol(Protocol::kOptiTree)
      .WithTreeOptions(topts)
      .WithCryptoCostModel(CryptoCostModel::Calibrated())
      .WithWorkload(w)
      .WithStateMachine(sm)
      .WithSeed(seed);
  if (mode == Mode::kTraced) {
    b.WithTrace();
  }
  auto d = b.Build();
  d->Start();
  rep.setup_s = SecondsSince(t0);
  if (mode == Mode::kSetup) {
    return rep;
  }
  RunSliced(*d, kHorizon, rep);

  const MetricsReport m = d->Metrics();
  rep.fingerprint = MetricsFingerprint(m);
  FillFleetOutcome(rep, m, ToSec(kHorizon));
  Gate(rep, m.workload.kv_checks > 0, "KV oracle checked nothing");
  Gate(rep, m.workload.kv_mismatches == 0, "KV oracle mismatch");
  Gate(rep, m.statemachine.digests_equal == 1, "replica state digests differ");
  const uint32_t k = 2 * d->f() + 1;
  rep.layer["tree_score_ms"] = TreeScore(d->tree().topology(), d->matrix(), k);
  if (mode == Mode::kDetail) {
    FillReportLayers(rep, m, /*tree_family=*/true,
                     static_cast<double>(m.workload.requests_completed));
    TimeSensorPath(rep, d->matrix(), d->n(), d->f(), nullptr, nullptr, seed);
    TimeTreeSearch(rep, d->matrix(), d->n(), d->f(), seed);
    const Bytes op = TimeStateMachine(
        rep, d->state_machines()->rsm(0).machine(), /*txn_keys=*/0, seed);
    TimeWire(rep, op, /*tree_family=*/true);
  }
  if (mode == Mode::kTraced) {
    FillStages(rep, d->TraceRecords());
  }
  return rep;
}

// Four HotStuff groups (n = 7 on Europe21) with 10% cross-shard 2PC and a
// closed-loop transaction fleet, on the PDES partition executor.
// The timed runs use its merged sequential driver (one sim thread): on a
// shared four-core host a descheduled worker stalls every window barrier
// of the windowed driver, and its host times spread past the bounds at
// 4 threads and at 2. The windowed driver runs at kWindowedSimThreads in
// the per-layer run only (Mode::kWindowed), where it must reproduce the
// merged driver's fingerprint.
constexpr unsigned kShardSimThreads = 1;
constexpr unsigned kWindowedSimThreads = 2;

Rep RunShardTxn(uint64_t seed, Mode mode) {
  constexpr SimTime kHorizon = 240 * kSec;
  Rep rep;
  const auto t0 = Clock::now();
  WorkloadOptions w;
  w.arrival = ArrivalProcess::kClosedLoop;
  w.outstanding = 1;
  w.batch.max_batch = 32;
  w.batch.max_delay = 10 * kMsec;
  StateMachineOptions sm;
  sm.checkpoint.interval = 64;
  sm.checkpoint.truncate = true;
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 6;
  txn.keys_per_txn = 2;
  txn.keys_per_client_shard = 8;
  txn.hot_pct = 10;
  txn.hot_keys = 8;
  txn.think_time = 5 * kMsec;
  Deployment::Builder b;
  b.WithGeo(Europe21())
      .WithReplicas(7, 2)
      .WithProtocol(Protocol::kHotStuff)
      .WithSeed(seed)
      .WithWorkload(w)
      .WithStateMachine(sm)
      .WithShards(4)
      .WithCrossShardRatio(0.1)
      .WithTxnWorkload(txn)
      .WithSimThreads(mode == Mode::kWindowed ? kWindowedSimThreads : kShardSimThreads);
  if (mode == Mode::kTraced) {
    b.WithTrace();
  }
  auto d = b.BuildSharded();
  d->Start();
  rep.setup_s = SecondsSince(t0);
  if (mode == Mode::kSetup) {
    return rep;
  }
  RunSliced(*d, kHorizon, rep);

  const MetricsReport m = d->Metrics();
  rep.fingerprint = MetricsFingerprint(m);
  const TxnReport& t = m.txn;
  rep.attempted += t.submitted;
  Gate(rep, t.enabled && t.committed_single > 0 && t.committed_cross > 0,
       "no single-shard or cross-shard transaction committed");
  Gate(rep, t.kv_checks > 0, "KV oracle checked nothing");
  Gate(rep, t.kv_mismatches == 0, "KV oracle mismatch");
  Gate(rep, m.statemachine.digests_equal == 1, "replica state digests differ");
  auto& L = rep.layer;
  L["commit_p50_ms"] = t.single_p50_ms;
  L["commit_p99_ms"] = t.single_p99_ms;
  L["cross_p99_ms"] = t.cross_shard_p99_ms;
  L["goodput_ops"] = static_cast<double>(t.committed) / ToSec(kHorizon);
  L["fail_ratio"] = Ratio(static_cast<double>(t.aborted), static_cast<double>(t.submitted));
  L["tree_score_ms"] =
      TreeScore(d->shard(0).tree().topology(), d->shard(0).matrix(),
                2 * d->shard(0).f() + 1);
  if (mode == Mode::kDetail) {
    FillReportLayers(rep, m, /*tree_family=*/true, static_cast<double>(t.committed));
    L["shard.prepares"] = static_cast<double>(t.prepares_sent);
    L["shard.votes_no"] = static_cast<double>(t.votes_no);
    L["shard.abort_ratio"] = L["fail_ratio"];
    const PartitionExecutor* exec = d->executor();
    L["shard.lookahead_us"] = exec != nullptr ? static_cast<double>(exec->lookahead()) : 0.0;
    Deployment& s0 = d->shard(0);
    TimeSensorPath(rep, s0.matrix(), s0.n(), s0.f(), nullptr, nullptr, seed);
    TimeTreeSearch(rep, s0.matrix(), s0.n(), s0.f(), seed);
    const Bytes op = TimeStateMachine(rep, s0.state_machines()->rsm(0).machine(),
                                      txn.keys_per_txn, seed);
    TimeWire(rep, op, /*tree_family=*/true);
  }
  if (mode == Mode::kWindowed) {
    const PartitionExecutor* exec = d->executor();
    L["shard.barriers"] = exec != nullptr ? static_cast<double>(exec->barrier_count()) : 0.0;
    L["shard.windowed_ns_per_event"] =
        Ratio(rep.run_s * 1e9, static_cast<double>(m.event_core.events_executed));
  }
  if (mode == Mode::kTraced) {
    FillStages(rep, d->TraceRecords());
  }
  return rep;
}

// Fig. 8/10/12 at the paper's scale, without a simulator: n = 73 over the
// Global73 matrix, t = f Byzantine replicas, the MIS candidate policy, and
// the CT4-style adversary of the candidate-policy ablation. Each decision
// feeds two suspicions, reads the candidate set (the MIS runs inside the
// monitor), anneals the next tree at 5000 iterations and scores it.
constexpr uint32_t kStormDecisions = 100;
constexpr uint64_t kStormScriptSeed = 1000;

Rep RunReconfigStorm(uint64_t seed, Mode mode) {
  Rep rep;
  const auto t0 = Clock::now();
  const std::vector<City> cities = Global73();
  const uint32_t n = static_cast<uint32_t>(cities.size());
  const uint32_t f = (n - 1) / 3;
  const auto rtts = RttMatrixMs(cities);
  LatencyMatrix matrix(n);
  for (ReplicaId a = 0; a < n; ++a) {
    for (ReplicaId b = 0; b < n; ++b) {
      if (a != b) {
        matrix.Record(a, b, rtts[a][b]);
      }
    }
  }
  const uint32_t internals = BranchFactorFor(n) + 1;
  KeyStore keys(n, seed);
  MisbehaviorMonitor misbehavior(n, &keys);
  SuspicionMonitorOptions opts;
  opts.policy = CandidatePolicy::kMaxIndependentSet;
  opts.min_candidates = internals;
  SuspicionMonitor monitor(n, f, &misbehavior, opts);
  rep.setup_s = SecondsSince(t0);
  if (mode == Mode::kSetup) {
    return rep;
  }

  // The suspicion script is part of the workload, not of the seed: the MIS
  // cost of a decision varies several-fold with the graph a script builds,
  // so a seed-drawn script would make host time a property of the seed.
  // --seed drives the search (SA) and the key store.
  Rng adversary(kStormScriptSeed);
  Rng rng(seed);
  std::set<ReplicaId> faulty;
  while (faulty.size() < f) {
    faulty.insert(static_cast<ReplicaId>(adversary.Below(n)));
  }
  Sha256 fp;
  std::vector<double> monitor_ms, anneal_ms;
  double score_sum = 0.0;
  uint64_t starved = 0;
  TreeTopology tree;
  uint32_t k = 2 * f + 1;
  for (uint32_t round = 1; round <= kStormDecisions; ++round) {
    // CT4 adversary of the candidate-policy ablation: the internals are a
    // random draw from the candidate set; a faulty internal and a correct
    // witness accuse each other (half the time the faulty one smears the
    // witness first). With no faulty internal, a faulty replica smears a
    // correct internal.
    std::vector<ReplicaId> pool = monitor.Current().candidates;
    adversary.Shuffle(pool);
    pool.resize(std::min<size_t>(pool.size(), internals));
    ReplicaId disruptor = kNoReplica, witness = kNoReplica;
    for (ReplicaId id : pool) {
      (faulty.count(id) > 0 ? disruptor : witness) = id;
    }
    if (disruptor == kNoReplica) {
      auto it = faulty.begin();
      std::advance(it, adversary.Below(faulty.size()));
      disruptor = *it;
    }
    if (witness == kNoReplica) {
      do {
        witness = static_cast<ReplicaId>(adversary.Below(n));
      } while (faulty.count(witness) > 0);
    }
    ReplicaId accuser = witness, accused = disruptor;
    if (adversary.Bernoulli(0.5)) {
      std::swap(accuser, accused);
    }
    const auto d0 = Clock::now();
    SuspicionRecord slow;
    slow.type = SuspicionType::kSlow;
    slow.suspector = accuser;
    slow.suspect = accused;
    slow.round = round;
    slow.phase = PhaseTag::kProposal;
    monitor.OnSuspicion(slow, true);
    SuspicionRecord reciprocal = slow;
    reciprocal.type = SuspicionType::kFalse;
    reciprocal.suspector = accused;
    reciprocal.suspect = accuser;
    monitor.OnSuspicion(reciprocal, true);
    const CandidateSet cands = monitor.Current();
    const auto d1 = Clock::now();
    if (cands.candidates.size() < internals) {
      ++starved;
      rep.step_ms.push_back(std::chrono::duration<double, std::milli>(d1 - d0).count());
      continue;
    }
    k = std::min(n, 2 * f + 1 + cands.u);
    tree = AnnealTree(n, cands.candidates, matrix, k, rng,
                      AnnealingParams::ForBudget(5000));
    const auto d2 = Clock::now();
    const double score = TreeScore(tree, matrix, k);
    const auto d3 = Clock::now();
    score_sum += score;
    monitor_ms.push_back(std::chrono::duration<double, std::milli>(d1 - d0).count());
    anneal_ms.push_back(std::chrono::duration<double, std::milli>(d2 - d1).count());
    rep.step_ms.push_back(std::chrono::duration<double, std::milli>(d3 - d0).count());

    Bytes buf;
    ByteWriter bw(&buf);
    bw.U32(cands.u);
    for (ReplicaId id : cands.candidates) {
      bw.U32(id);
    }
    tree.ToConfig().Serialize(bw);
    bw.U64(static_cast<uint64_t>(std::llround(score * 1000.0)));
    fp.Update(buf);
  }
  for (double ms : rep.step_ms) {
    rep.run_s += ms / 1e3;
  }
  rep.step_units.assign(rep.step_ms.size(), 1.0);
  rep.fingerprint = DigestHex(fp.Finish());
  rep.attempted = kStormDecisions;
  rep.lost = starved;
  Gate(rep, starved == 0, "the candidate set starved");

  auto& L = rep.layer;
  const double decided = static_cast<double>(kStormDecisions - starved);
  L["tree_score_ms"] = Ratio(score_sum, decided);
  L["fail_ratio"] = static_cast<double>(starved) / kStormDecisions;
  if (mode != Mode::kPlain) {
    L["core.suspicions"] = 2.0 * kStormDecisions;
    L["core.reconfigurations"] = decided;
    L["core.candidates"] = static_cast<double>(monitor.Current().candidates.size());
    L["core.u"] = monitor.Current().u;
    L["core.monitor_ms_p50"] = Percentile(monitor_ms, 50);
    L["core.monitor_ms_p90"] = Percentile(monitor_ms, 90);
    L["tree.anneal_ms_p50"] = Percentile(anneal_ms, 50);
    L["tree.anneal_ms_p90"] = Percentile(anneal_ms, 90);
    L["tree.score_ns"] = NsPerCall([&](uint64_t) { return TreeScore(tree, matrix, k); });
    TimeSensorPath(rep, matrix, n, f, nullptr, &monitor.Current(), seed);
  }
  return rep;
}

// --- metric tables -------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end (--trace 0): host time per unit of work, where a unit is one
// executed simulator event (deployment workloads) or one decision (storm).
// Not per simulated second or per request: how much work those hold
// depends on the seed (an OptiTree seed that builds a faster tree commits
// 25% more requests per second; an OptiAware seed that settles on smaller
// batches executes 60% more events per request). A behaviour-neutral
// change executes the same events, so per event it compares like for like.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"unit_us", "us"},
    {"unit_us_p90", "us"},
    {"peak_rss_mb", "MB"},
};

// Per-layer (--trace 1). A layer a workload does not exercise reports 0.
const MetricDef kPerLayer[] = {
    {"commit_p50_ms", "ms"},
    {"commit_p99_ms", "ms"},
    {"cross_p99_ms", "ms"},
    {"goodput_ops", "ops/s"},
    {"mitigation_s", "s"},
    {"tree_score_ms", "ms"},
    {"fail_ratio", "ratio"},
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.speed", "sim_s/s"},
    {"sim.closure_events", "count"},
    {"sim.pool_hit_ratio", "ratio"},
    {"sim.peak_pending", "count"},
    {"sim.slice_ms_p50", "ms"},
    {"sim.slice_ms_p90", "ms"},
    {"net.messages", "count"},
    {"net.bytes", "B"},
    {"net.bytes_per_op", "B"},
    {"wire.encode_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"crypto.signs", "count"},
    {"crypto.verifies", "count"},
    {"crypto.hashed_bytes", "B"},
    {"crypto.busy_ms_max", "ms"},
    {"crypto.sha256_ns_per_kb", "ns"},
    {"crypto.hmac_ns", "ns"},
    {"hotstuff.batch_mean", "count"},
    {"hotstuff.failed_rounds", "count"},
    {"pbft.batch_mean", "count"},
    {"core.suspicions", "count"},
    {"core.reconfigurations", "count"},
    {"core.coverage_ns", "ns"},
    {"aware.valid_ns", "ns"},
    {"aware.round_ns", "ns"},
    {"aware.accept_timeout_ns", "ns"},
    {"core.monitor_ms_p50", "ms"},
    {"core.monitor_ms_p90", "ms"},
    {"core.candidates", "count"},
    {"core.u", "count"},
    {"tree.anneal_ms_p50", "ms"},
    {"tree.anneal_ms_p90", "ms"},
    {"tree.score_ns", "ns"},
    {"statemachine.applied", "count"},
    {"statemachine.apply_ns", "ns"},
    {"statemachine.snapshot_ms", "ms"},
    {"statemachine.peak_log_entries", "count"},
    {"workload.retried", "count"},
    {"workload.dropped", "count"},
    {"workload.peak_queue", "count"},
    {"shard.prepares", "count"},
    {"shard.votes_no", "count"},
    {"shard.abort_ratio", "ratio"},
    {"shard.barriers", "count"},
    {"shard.lookahead_us", "us"},
    {"shard.windowed_ns_per_event", "ns"},
    {"obs.stage_client_net_ms", "ms"},
    {"obs.stage_queue_ms", "ms"},
    {"obs.stage_batch_ms", "ms"},
    {"obs.stage_consensus_ms", "ms"},
    {"obs.stage_apply_ms", "ms"},
    {"obs.stage_reply_ms", "ms"},
    {"obs.trace_overhead_ratio", "ratio"},
};

struct Workload {
  const char* name;
  Rep (*run)(uint64_t seed, Mode mode);
  bool traceable;  // runs on a Deployment (has a flight recorder)
  bool windowed;   // runs on the PDES executor (has a windowed driver)
};

const Workload kWorkloads[] = {
    {"aware_attack", RunAwareAttack, true, false},
    {"tree_kv", RunTreeKv, true, false},
    {"reconfig_storm", RunReconfigStorm, false, false},
    {"shard_txn", RunShardTxn, true, true},
};

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// Peak resident set of this process image (VmHWM). Unlike ru_maxrss it
// does not carry over the launcher's peak across exec.
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<std::pair<const MetricDef*, double>>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += "\"" + std::string(metrics[i].first->name) + "\": {\"value\": " +
           Num(metrics[i].second) + ", \"unit\": \"" + metrics[i].first->unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Prints a repetition's identity and gate failures; returns its failure count.
uint64_t Report(const char* workload, uint64_t seed, const char* label,
                const Rep& rep) {
  std::printf("rep %s seed=%llu %s fingerprint=%s setup_s=%s run_s=%s\n",
              workload, static_cast<unsigned long long>(seed), label,
              rep.fingerprint.c_str(), Num(rep.setup_s).c_str(),
              Num(rep.run_s).c_str());
  for (const std::string& e : rep.errors) {
    std::printf("GATE FAILED %s seed=%llu %s: %s\n", workload,
                static_cast<unsigned long long>(seed), label, e.c_str());
  }
  return rep.errors.size();
}

// Set-up samples per --trace 0 run: at least the minimum, then more while
// the budget lasts (sub-millisecond set-ups need many samples to be steady).
constexpr size_t kSetupSamplesMin = 15;
constexpr size_t kSetupSamplesMax = 200;
constexpr double kSetupBudgetS = 1.0;

// Repetition r of a --trace 0 run uses seed + r * kRepSeedStride, so a run
// averages over several inputs and its figure is less a property of one
// seed (an OptiAware seed can settle on a post-attack configuration that
// costs more host time per request). Repetition 0 is --seed itself.
constexpr uint64_t kRepSeedStride = 0x9e3779b97f4a7c15ULL;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --list\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const Workload& w : kWorkloads) {
        std::printf("%s\n", w.name);
      }
      return 0;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(val);
    } else {
      return Usage();
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      wl = &w;
    }
  }
  if (wl == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return Usage();
  }

  uint64_t attempted = 0, failed = 0, gate_failures = 0;
  std::vector<std::pair<const MetricDef*, double>> out;
  if (trace == 0) {
    // Set-up is short next to a run, so it is sampled on its own first;
    // then repeat until the budget would be overrun by one more repetition.
    const auto start = Clock::now();
    std::vector<double> setup;
    // Per-repetition figures, reported as medians so that one repetition
    // caught in a burst of host contention does not move the run's figure.
    std::vector<double> unit_us, unit_us_p90;
    while (setup.size() < kSetupSamplesMin ||
           (setup.size() < kSetupSamplesMax && SecondsSince(start) < kSetupBudgetS)) {
      setup.push_back(wl->run(seed, Mode::kSetup).setup_s);
    }
    // Later repetitions reuse the first one's heap; its peak is the run's.
    double peak_rss_mb = 0.0;
    int reps = 0;
    for (;;) {
      const uint64_t rep_seed = seed + static_cast<uint64_t>(reps) * kRepSeedStride;
      const Rep rep = wl->run(rep_seed, Mode::kPlain);
      gate_failures += Report(wl->name, rep_seed, ("rep" + std::to_string(reps)).c_str(), rep);
      ++reps;
      attempted += rep.attempted;
      failed += rep.lost;
      setup.push_back(rep.setup_s);
      double units = 0.0;
      std::vector<double> step_unit_us;
      for (size_t i = 0; i < rep.step_ms.size(); ++i) {
        units += rep.step_units[i];
        step_unit_us.push_back(rep.step_ms[i] * 1e3 / std::max(rep.step_units[i], 1.0));
      }
      unit_us.push_back(Ratio(rep.run_s * 1e6, units));
      unit_us_p90.push_back(Percentile(step_unit_us, 90));
      if (reps == 1) {
        peak_rss_mb = PeakRssMb();
      }
      const double elapsed = SecondsSince(start);
      if (elapsed + elapsed / reps > seconds) {
        break;
      }
    }
    const double values[] = {Median(setup), Median(unit_us), Median(unit_us_p90),
                             peak_rss_mb};
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(&kEndToEnd[i], values[i]);
    }
  } else {
    Rep plain = wl->run(seed, Mode::kDetail);
    gate_failures += Report(wl->name, seed, "untraced", plain);
    attempted += plain.attempted;
    failed += plain.lost;
    TimeCrypto(plain);
    if (wl->traceable) {
      const Rep traced = wl->run(seed, Mode::kTraced);
      gate_failures += Report(wl->name, seed, "traced", traced);
      if (traced.fingerprint != plain.fingerprint) {
        std::printf("GATE FAILED %s seed=%llu: traced fingerprint differs\n",
                    wl->name, static_cast<unsigned long long>(seed));
        ++gate_failures;
      }
      for (const auto& [name, value] : traced.layer) {
        if (name.rfind("obs.", 0) == 0) {
          plain.layer[name] = value;
        }
      }
      plain.layer["obs.trace_overhead_ratio"] = Ratio(traced.run_s, plain.run_s);
    }
    if (wl->windowed) {
      const Rep windowed = wl->run(seed, Mode::kWindowed);
      gate_failures += Report(wl->name, seed, "windowed", windowed);
      if (windowed.fingerprint != plain.fingerprint) {
        std::printf("GATE FAILED %s seed=%llu: windowed-driver fingerprint differs\n",
                    wl->name, static_cast<unsigned long long>(seed));
        ++gate_failures;
      }
      for (const char* name : {"shard.barriers", "shard.windowed_ns_per_event"}) {
        plain.layer[name] = windowed.layer.at(name);
      }
    }
    for (const auto& [name, value] : plain.layer) {
      const bool declared =
          std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                      [&](const MetricDef& def) { return name == def.name; });
      OL_CHECK_MSG(declared, name.c_str());
    }
    for (const MetricDef& def : kPerLayer) {
      const auto it = plain.layer.find(def.name);
      out.emplace_back(&def, it != plain.layer.end() ? it->second : 0.0);
    }
  }
  PrintResult(gate_failures == 0, attempted, failed + gate_failures, out);
  return gate_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace optilog

int main(int argc, char** argv) { return optilog::Main(argc, argv); }
