// Equivalence tests for the Deployment builder: engines built through the
// fluent API must reproduce the exact counts of the hand-wired setups they
// replaced. The hand-wired halves below are intentionally the only direct
// TreeRsm / PbftHarness constructions outside src/ — they are the reference
// the API is measured against.
#include <gtest/gtest.h>

#include "src/api/deployment.h"
#include "src/tree/kauri.h"

namespace optilog {
namespace {

LatencyMatrix MatrixFor(const std::vector<City>& cities) {
  const auto rtts = RttMatrixMs(cities);
  LatencyMatrix m(static_cast<uint32_t>(cities.size()));
  for (ReplicaId a = 0; a < cities.size(); ++a) {
    for (ReplicaId b = 0; b < cities.size(); ++b) {
      if (a != b) {
        m.Record(a, b, rtts[a][b]);
      }
    }
  }
  return m;
}

// --- OptiTree: healthy run ---------------------------------------------------

TEST(DeploymentBuilder, OptiTreeMatchesHandWiredCounts) {
  constexpr uint32_t kN = 21, kF = 6;
  constexpr uint64_t kSeed = 11;
  const SimTime run_time = 20 * kSec;
  const AnnealingParams params = AnnealingParams::ForBudget(2000);

  // Hand-wired: the setup every bench used to repeat.
  uint64_t wired_blocks = 0;
  double wired_latency = 0.0;
  {
    const auto cities = Europe21();
    GeoLatencyModel latency(cities);
    Simulator sim;
    FaultModel faults;
    Network net(&sim, &latency, &faults);
    KeyStore keys(kN, kSeed);
    const LatencyMatrix matrix = MatrixFor(cities);

    TreeRsmOptions opts;
    opts.n = kN;
    opts.f = kF;
    TreeRsm rsm(&sim, &net, &keys, &matrix, opts);
    Rng rng(kSeed);
    std::vector<ReplicaId> all(kN);
    for (ReplicaId id = 0; id < kN; ++id) {
      all[id] = id;
    }
    rsm.SetTopology(AnnealTree(kN, all, matrix, 2 * kF + 1, rng, params));
    rsm.Start();
    sim.RunUntil(run_time);
    wired_blocks = rsm.committed_blocks();
    wired_latency = rsm.latency_rec().stat().mean();
    ASSERT_GT(wired_blocks, 50u);
  }

  // Builder-built: same seed, same search budget.
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithReplicas(kN, kF)
               .WithProtocol(Protocol::kOptiTree)
               .WithSeed(kSeed)
               .WithInitialSearch(params)
               .Build();
  d->Start();
  d->RunUntil(run_time);
  const MetricsReport m = d->Metrics();

  EXPECT_EQ(m.committed, wired_blocks);
  EXPECT_DOUBLE_EQ(m.mean_latency_ms, wired_latency);
  EXPECT_EQ(m.failed_rounds, 0u);
  EXPECT_EQ(m.reconfigurations, 0u);
}

// --- OptiTree: crash + pipeline-driven reconfiguration -----------------------

TEST(DeploymentBuilder, OptiTreeCrashRecoveryMatchesHandWiredPipeline) {
  constexpr uint32_t kN = 21, kF = 6;
  constexpr uint64_t kSeed = 11;
  const SimTime run_time = 30 * kSec;
  const SimTime crash_at = 5 * kSec;
  const AnnealingParams params = AnnealingParams::ForBudget(2000);

  // Hand-wired OptiLog loop: log + pipeline + reconfiguration policy — what
  // bench_fig15 / stellar_network wired by hand before WithOptiLogReconfig.
  uint64_t wired_blocks = 0, wired_reconfigs = 0, wired_failed = 0;
  {
    const auto cities = Europe21();
    GeoLatencyModel latency(cities);
    Simulator sim;
    FaultModel faults;
    Network net(&sim, &latency, &faults);
    KeyStore keys(kN, kSeed);
    const LatencyMatrix matrix = MatrixFor(cities);

    TreeRsmOptions opts;
    opts.n = kN;
    opts.f = kF;
    TreeRsm rsm(&sim, &net, &keys, &matrix, opts);
    Rng rng(kSeed);
    std::vector<ReplicaId> all(kN);
    for (ReplicaId id = 0; id < kN; ++id) {
      all[id] = id;
    }
    const TreeTopology first = AnnealTree(kN, all, matrix, 2 * kF + 1, rng, params);
    rsm.SetTopology(first);
    faults.Mutable(first.root()).crash_at = crash_at;

    TreeConfigSpace space(kN, 2 * kF + 1);
    Pipeline::Options popts;
    popts.suspicion.policy = CandidatePolicy::kTreeDisjointEdges;
    popts.suspicion.min_candidates = BranchFactorFor(kN) + 1;
    popts.rng_seed = kSeed;
    popts.auto_reciprocate = false;
    Log log;
    Pipeline pipeline(
        0, kN, kF, &keys, &space, [](Bytes) {},
        [](const RoleConfig&, double) {}, popts);
    log.AddListener([&](const LogEntry& e) { pipeline.OnCommit(e); });

    Rng reconfig_rng(kSeed ^ 0x5deece66dull);
    size_t consumed = 0;
    rsm.SetReconfigPolicy([&](TreeRsm& r) -> std::optional<TreeTopology> {
      const auto& suspicions = r.logged_suspicions();
      for (; consumed < suspicions.size(); ++consumed) {
        LogEntry e;
        e.kind = EntryKind::kMeasurement;
        e.committed_at = sim.now();
        e.payload = MakeSuspicionMeasurement(suspicions[consumed], keys).Encode();
        log.Append(e);
      }
      pipeline.OnView(consumed);
      std::set<ReplicaId> excluded;
      for (ReplicaId id = 0; id < kN; ++id) {
        if (faults.IsCrashedAt(id, sim.now())) {
          excluded.insert(id);
        }
      }
      const CandidateSet& k = pipeline.suspicion_monitor().Current();
      std::vector<ReplicaId> pool;
      for (ReplicaId id : k.candidates) {
        if (excluded.count(id) == 0) {
          pool.push_back(id);
        }
      }
      if (pool.size() < BranchFactorFor(kN) + 1) {
        return std::nullopt;
      }
      r.SetExcluded(std::move(excluded));
      r.PauseProposals(1 * kSec);
      return AnnealTree(kN, pool, matrix, 2 * kF + 1 + k.u, reconfig_rng, params);
    });

    rsm.Start();
    sim.RunUntil(run_time);
    wired_blocks = rsm.committed_blocks();
    wired_reconfigs = rsm.reconfigurations();
    wired_failed = rsm.failed_rounds();
    ASSERT_GE(wired_reconfigs, 1u);
    ASSERT_GT(wired_blocks, 50u);
  }

  ReplicaId first_root = kNoReplica;
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithReplicas(kN, kF)
               .WithProtocol(Protocol::kOptiTree)
               .WithSeed(kSeed)
               .WithInitialSearch(params)
               .WithOptiLogReconfig(/*search_window=*/1 * kSec)
               .WithFaults([&](Deployment& dep) {
                 first_root = dep.tree().topology().root();
                 dep.faults().Mutable(first_root).crash_at = crash_at;
               })
               .Build();
  d->Start();
  d->RunUntil(run_time);
  const MetricsReport m = d->Metrics();

  EXPECT_EQ(m.committed, wired_blocks);
  EXPECT_EQ(m.reconfigurations, wired_reconfigs);
  EXPECT_EQ(m.failed_rounds, wired_failed);
  EXPECT_NE(d->tree().topology().root(), first_root);
}

// --- OptiAware: delay attack -------------------------------------------------

TEST(DeploymentBuilder, OptiAwareMatchesHandWiredCounts) {
  const SimTime run_time = 40 * kSec;
  PbftOptions opts;
  opts.n = 21;
  opts.f = 6;
  opts.mode = PbftMode::kOptiAware;
  opts.delta = 1.5;
  opts.optimize_at = 5 * kSec;

  // Hand-wired: replicas and clients colocated (doubled city list).
  uint64_t wired_instances = 0, wired_suspicions = 0, wired_reconfigs = 0;
  Digest wired_head{};
  {
    auto cities = Europe21();
    auto both = cities;
    both.insert(both.end(), cities.begin(), cities.end());
    GeoLatencyModel latency(both);
    Simulator sim;
    FaultModel faults;
    Network net(&sim, &latency, &faults);
    KeyStore keys(21, 1);
    // The builder's default fleet, spelled out: BFT-SMaRt's closed loop of
    // one client per replica on the harness seed, f + 1 replies, and a
    // leader that drains its whole queue into each batch.
    PbftOptions wired = opts;
    wired.workload.clients = 21;
    wired.workload.outstanding = 1;
    wired.workload.think_time = 50 * kMsec;
    wired.workload.request_bytes = 64;
    wired.workload.replies_needed = 7;
    wired.workload.seed = opts.seed;
    wired.workload.batch.max_batch = ~0u;
    wired.workload.batch.max_delay = 0;
    wired.workload.batch.max_queue = ~size_t{0};
    PbftHarness harness(&sim, &net, &keys, wired);
    sim.ScheduleAt(15 * kSec, [&] {
      auto& f = faults.Mutable(harness.config().leader);
      f.proposal_delay = 600 * kMsec;
      f.fast_probes = true;
    });
    harness.Start();
    sim.RunUntil(run_time);
    wired_instances = harness.committed_instances();
    wired_suspicions = harness.suspicion_times().size();
    wired_reconfigs = harness.reconfigure_times().size();
    wired_head = harness.log().head();
    ASSERT_GT(wired_suspicions, 0u);
    ASSERT_GE(wired_reconfigs, 2u);  // scheduled optimization + mitigation
  }

  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kOptiAware)
               .WithPbftOptions(opts)
               .Build();
  d->sim().ScheduleAt(15 * kSec, [&] {
    auto& f = d->faults().Mutable(d->pbft().config().leader);
    f.proposal_delay = 600 * kMsec;
    f.fast_probes = true;
  });
  d->Start();
  d->RunUntil(run_time);
  const MetricsReport m = d->Metrics();

  EXPECT_EQ(m.committed, wired_instances);
  EXPECT_EQ(m.suspicions, wired_suspicions);
  EXPECT_EQ(m.reconfigurations, wired_reconfigs);
  // The replicated log is byte-identical: the measurement bus is
  // deterministic end to end.
  EXPECT_EQ(d->pbft().log().head(), wired_head);
}

// --- Builder defaults and the ConsensusEngine interface ----------------------

TEST(DeploymentBuilder, ResolvesPbftDefaultFleet) {
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kAware)
               .WithSeed(5)
               .Build();
  ASSERT_NE(d->engine().client_fleet(), nullptr);
  const WorkloadOptions& w = d->engine().client_fleet()->options();
  EXPECT_EQ(w.clients, 21u);
  EXPECT_EQ(w.arrival, ArrivalProcess::kClosedLoop);
  EXPECT_EQ(w.outstanding, 1u);
  EXPECT_EQ(w.think_time, 50 * kMsec);
  EXPECT_EQ(w.request_bytes, 64u);
  EXPECT_EQ(w.replies_needed, 7u);  // f + 1
  EXPECT_EQ(w.seed, 5u);            // the harness seed, not a folded one
  // Propose-on-idle drains the whole queue: no size, deadline or depth cap.
  EXPECT_EQ(w.batch.max_batch, ~0u);
  EXPECT_EQ(w.batch.max_delay, 0);
  EXPECT_EQ(w.batch.max_queue, ~size_t{0});
  EXPECT_EQ(d->workload()->replies_needed, 7u);
  EXPECT_EQ(d->pbft().options().workload.replies_needed, 7u);
}

TEST(DeploymentBuilder, ResolvesTreeWorkloadDefaults) {
  WorkloadOptions w;
  w.arrival = ArrivalProcess::kOpenRate;
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kKauri)
               .WithWorkload(w)
               .Build();
  ASSERT_NE(d->engine().client_fleet(), nullptr);
  const WorkloadOptions& r = d->engine().client_fleet()->options();
  EXPECT_EQ(r.clients, 21u);
  EXPECT_EQ(r.replies_needed, 1u);  // the root's commit-stamped reply
  EXPECT_EQ(r.arrival, ArrivalProcess::kOpenRate);

  // Without WithWorkload a tree engine self-drives: nothing to resolve.
  auto self_driven = Deployment::Builder()
                         .WithGeo(Europe21())
                         .WithProtocol(Protocol::kKauri)
                         .Build();
  EXPECT_EQ(self_driven->workload(), nullptr);
  EXPECT_EQ(self_driven->engine().client_fleet(), nullptr);
}

TEST(DeploymentBuilder, DefaultsFillGeoAndFaultBudget) {
  auto d = Deployment::Builder()
               .WithReplicas(13, 4)
               .WithProtocol(Protocol::kKauri)
               .Build();
  EXPECT_EQ(d->n(), 13u);
  EXPECT_EQ(d->f(), 4u);
  EXPECT_EQ(d->cities().size(), 13u);
  EXPECT_DOUBLE_EQ(d->matrix().Coverage(), 1.0);
  d->Start();
  d->RunUntil(10 * kSec);
  const MetricsReport m = d->Metrics();
  EXPECT_GT(m.committed, 10u);
  // The unified report carries the event-core counters, and a builder-built
  // tree run stays entirely on the typed (closure-free) lanes.
  EXPECT_GT(m.event_core.typed_deliveries, 0u);
  EXPECT_GT(m.event_core.typed_timers, 0u);
  EXPECT_EQ(m.event_core.closure_events, 0u);
  EXPECT_EQ(m.event_core.events_executed, d->sim().events_executed());
}

TEST(DeploymentBuilder, GeoDerivesSizeAndFaults) {
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kHotStuff)
               .Build();
  EXPECT_EQ(d->n(), 21u);
  EXPECT_EQ(d->f(), 6u);
  // HotStuff default topology: a star rooted at 0.
  EXPECT_EQ(d->tree().topology().root(), 0u);
  EXPECT_TRUE(d->tree().topology().intermediates().empty());
}

TEST(ConsensusEngine, SetTopologyOrConfigRoundTrips) {
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kKauri)
               .WithSeed(3)
               .Build();
  ConsensusEngine& engine = d->engine();

  Rng rng(17);
  const TreeTopology replacement = RandomTree(21, rng);
  engine.SetTopologyOrConfig(replacement.ToConfig());
  EXPECT_EQ(d->tree().topology().root(), replacement.root());
  EXPECT_EQ(engine.ActiveConfig(), replacement.ToConfig());

  engine.Start();
  d->RunUntil(10 * kSec);
  const MetricsReport m = engine.Metrics();
  EXPECT_GT(m.committed, 10u);
  EXPECT_GT(m.MeanOps(1, 10), 0.0);

  // Mid-run install is a forced reconfiguration: counted, and progress
  // resumes on the new tree without waiting out stale round timers.
  const TreeTopology second = RandomTree(21, rng);
  engine.SetTopologyOrConfig(second.ToConfig());
  d->RunUntil(20 * kSec);
  const MetricsReport after = engine.Metrics();
  EXPECT_EQ(after.reconfigurations, m.reconfigurations + 1);
  EXPECT_EQ(after.reconfig_times.back(), 10 * kSec);
  EXPECT_GT(after.committed, m.committed + 10u);
}

TEST(ConsensusEngine, PbftReportsUnifiedMetrics) {
  PbftOptions opts;
  opts.optimize_at = 5 * kSec;
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kAware)
               .WithPbftOptions(opts)
               .Build();
  d->Start();
  d->RunUntil(15 * kSec);
  const MetricsReport m = d->Metrics();
  EXPECT_GT(m.committed, 20u);
  EXPECT_GT(m.total_commands, m.committed);  // batches carry >= 1 request
  EXPECT_GT(m.mean_latency_ms, 1.0);
  EXPECT_LT(m.mean_latency_ms, 500.0);
  EXPECT_EQ(m.reconfigurations, 1u);  // the scheduled optimization
  EXPECT_FALSE(m.throughput_per_sec.empty());
  // The engine's config names a leader with full weight vector.
  EXPECT_EQ(d->engine().ActiveConfig().weight_max.size(), 21u);
}

}  // namespace
}  // namespace optilog
