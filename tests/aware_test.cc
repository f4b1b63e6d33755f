#include <gtest/gtest.h>

#include <limits>

#include "src/api/deployment.h"
#include "src/aware/aware_score.h"
#include "src/net/geo.h"

namespace optilog {
namespace {

LatencyMatrix UniformMatrix(uint32_t n, double rtt_ms) {
  LatencyMatrix m(n);
  for (ReplicaId a = 0; a < n; ++a) {
    for (ReplicaId b = 0; b < n; ++b) {
      if (a != b) {
        m.Record(a, b, rtt_ms);
      }
    }
  }
  return m;
}

CandidateSet AllCandidates(uint32_t n) {
  CandidateSet k;
  for (ReplicaId id = 0; id < n; ++id) {
    k.candidates.push_back(id);
  }
  return k;
}

RoleConfig BasicConfig(uint32_t n, uint32_t f, ReplicaId leader) {
  RoleConfig cfg;
  cfg.leader = leader;
  cfg.weight_max.assign(n, 0);
  uint32_t assigned = 0;
  cfg.weight_max[leader] = 1;
  ++assigned;
  for (ReplicaId id = 0; id < n && assigned < 2 * f; ++id) {
    if (id != leader) {
      cfg.weight_max[id] = 1;
      ++assigned;
    }
  }
  return cfg;
}

TEST(WeightScheme, PbftCaseNoDelta) {
  // n = 3f + 1: Vmax = Vmin = 1, quorum = 2f + 1.
  const WeightScheme s = WeightScheme::For(13, 4);
  EXPECT_DOUBLE_EQ(s.v_max, 1.0);
  EXPECT_DOUBLE_EQ(s.v_min, 1.0);
  EXPECT_DOUBLE_EQ(s.quorum_weight, 9.0);
}

TEST(WeightScheme, AwareCaseWithDelta) {
  // n = 21, f = 6 -> Delta = 2, Vmax = 1 + 2/6, Qv = 2*6*Vmax + 1 = 17.
  const WeightScheme s = WeightScheme::For(21, 6);
  EXPECT_NEAR(s.v_max, 1.0 + 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(s.quorum_weight, 17.0, 1e-9);
}

TEST(WeightedQuorumTime, PicksFastestQuorum) {
  // Weights 1, quorum 3: third-fastest arrival.
  std::vector<std::pair<double, double>> arrivals{
      {50, 1}, {10, 1}, {30, 1}, {20, 1}, {40, 1}};
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 3.0, 0), 30.0);
}

TEST(WeightedQuorumTime, HeavyVotesFormQuorumFaster) {
  std::vector<std::pair<double, double>> arrivals{
      {10, 2}, {20, 2}, {100, 1}, {110, 1}, {120, 1}};
  // Quorum weight 4: two Vmax replicas at t = 20 suffice.
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 4.0, 0), 20.0);
  // Without weights it would need four arrivals (t = 110).
  std::vector<std::pair<double, double>> flat{
      {10, 1}, {20, 1}, {100, 1}, {110, 1}, {120, 1}};
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(flat, 4.0, 0), 110.0);
}

TEST(WeightedQuorumTime, SkipFastestModelsMisbehavers) {
  std::vector<std::pair<double, double>> arrivals{
      {10, 1}, {20, 1}, {30, 1}, {40, 1}};
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 2.0, 0), 20.0);
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 2.0, 1), 30.0);
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 2.0, 2), 40.0);
  EXPECT_TRUE(std::isinf(WeightedQuorumTime(arrivals, 2.0, 3)));
}

TEST(AwareScore, UniformMatrixIsThreePhases) {
  // Uniform RTT r, uniform weights: propose r, prepared 2r, committed 3r.
  const uint32_t n = 13, f = 4;
  const WeightScheme s = WeightScheme::For(n, f);
  const LatencyMatrix m = UniformMatrix(n, 10.0);
  const RoleConfig cfg = BasicConfig(n, f, 0);
  EXPECT_DOUBLE_EQ(AwareRoundDurationMs(cfg, s, m, 0), 30.0);
}

TEST(AwareScore, LeaderPlacementMatters) {
  // Leader in the EU cluster beats a leader in an outlier city.
  const auto cities = NaEu43();
  const auto rtts = RttMatrixMs(cities);
  LatencyMatrix m(43);
  for (ReplicaId a = 0; a < 43; ++a) {
    for (ReplicaId b = 0; b < 43; ++b) {
      if (a != b) {
        m.Record(a, b, rtts[a][b]);
      }
    }
  }
  // f = 10 leaves Delta = 12 spare replicas, so weighted quorums can form
  // from well-placed Vmax holders — the regime Aware/WHEAT target.
  const uint32_t f = 10;
  const WeightScheme s = WeightScheme::For(43, f);
  double best = 1e18, worst = 0;
  for (ReplicaId leader = 0; leader < 43; ++leader) {
    RoleConfig cfg;
    cfg.leader = leader;
    cfg.weight_max.assign(43, 0);
    // Give Vmax to the leader and its 2f - 1 nearest peers.
    std::vector<std::pair<double, ReplicaId>> near;
    for (ReplicaId other = 0; other < 43; ++other) {
      near.emplace_back(other == leader ? 0.0 : m.Rtt(leader, other), other);
    }
    std::sort(near.begin(), near.end());
    for (uint32_t i = 0; i < 2 * f; ++i) {
      cfg.weight_max[near[i].second] = 1;
    }
    const double d = AwareRoundDurationMs(cfg, s, m, 0);
    best = std::min(best, d);
    worst = std::max(worst, d);
  }
  EXPECT_LT(best, 0.8 * worst);
}

TEST(AwareScore, UEstimateIncreasesPrediction) {
  const uint32_t n = 21, f = 6;
  const WeightScheme s = WeightScheme::For(n, f);
  const auto cities = Europe21();
  const auto rtts = RttMatrixMs(cities);
  LatencyMatrix m(n);
  for (ReplicaId a = 0; a < n; ++a) {
    for (ReplicaId b = 0; b < n; ++b) {
      if (a != b) {
        m.Record(a, b, rtts[a][b]);
      }
    }
  }
  const RoleConfig cfg = BasicConfig(n, f, 0);
  double prev = 0;
  for (uint32_t u = 0; u <= 4; ++u) {
    const double d = AwareRoundDurationMs(cfg, s, m, u);
    EXPECT_GE(d, prev) << "u=" << u;
    prev = d;
  }
}

TEST(AwareScore, TimeoutRequirementsTr1Tr2) {
  const uint32_t n = 13, f = 4;
  const LatencyMatrix m = UniformMatrix(n, 10.0);
  const RoleConfig cfg = BasicConfig(n, f, 2);
  // TR1: Propose timeout to A = L(leader, A).
  EXPECT_DOUBLE_EQ(AwareProposeTimeoutMs(cfg, m, 5), 10.0);
  EXPECT_DOUBLE_EQ(AwareProposeTimeoutMs(cfg, m, 2), 0.0);
  // TR2: Write from A to B = propose(A) + L(A, B).
  EXPECT_DOUBLE_EQ(AwareWriteTimeoutMs(cfg, m, 5, 7), 20.0);
  EXPECT_DOUBLE_EQ(AwareWriteTimeoutMs(cfg, m, 2, 7), 10.0);  // leader writes
}

TEST(AwareScore, Tr3RoundEqualsLeaderAcceptQuorum) {
  // d_rnd must equal the accept-quorum timeout at the leader (TR3), which is
  // exactly how AwareRoundDurationMs is built; cross-check on a uniform
  // matrix against AwareAcceptTimeoutMs.
  const uint32_t n = 13, f = 4;
  const WeightScheme s = WeightScheme::For(n, f);
  const LatencyMatrix m = UniformMatrix(n, 10.0);
  const RoleConfig cfg = BasicConfig(n, f, 0);
  // Accept from any non-leader B to the leader: prepared(B) + L(B, L) = 30.
  EXPECT_DOUBLE_EQ(AwareAcceptTimeoutMs(cfg, s, m, 1, 0, 0), 30.0);
  EXPECT_DOUBLE_EQ(AwareRoundDurationMs(cfg, s, m, 0), 30.0);
}

TEST(AwareSpace, RandomConfigsValid) {
  AwareConfigSpace space(21, 6);
  const CandidateSet k = AllCandidates(21);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const RoleConfig cfg = space.RandomConfig(k, rng);
    EXPECT_TRUE(space.Valid(cfg, k));
    uint32_t vmax = 0;
    for (uint8_t w : cfg.weight_max) {
      vmax += w;
    }
    EXPECT_EQ(vmax, 12u);  // 2f
    EXPECT_EQ(cfg.weight_max[cfg.leader], 1);
  }
}

TEST(AwareSpace, MutatePreservesValidity) {
  AwareConfigSpace space(21, 6);
  CandidateSet k;
  for (ReplicaId id = 0; id < 16; ++id) {
    k.candidates.push_back(id);
  }
  Rng rng(3);
  RoleConfig cfg = space.RandomConfig(k, rng);
  for (int i = 0; i < 300; ++i) {
    cfg = space.Mutate(cfg, k, rng);
    ASSERT_TRUE(space.Valid(cfg, k)) << "iteration " << i;
  }
}

TEST(AwareSpace, RejectsVmaxOutsideCandidates) {
  AwareConfigSpace space(13, 4);
  CandidateSet k;
  for (ReplicaId id = 0; id < 12; ++id) {
    k.candidates.push_back(id);
  }
  RoleConfig cfg;
  cfg.leader = 0;
  cfg.weight_max.assign(13, 0);
  cfg.weight_max[0] = 1;
  cfg.weight_max[12] = 1;  // 12 is not a candidate
  EXPECT_FALSE(space.Valid(cfg, k));
}

TEST(AwareSpace, RejectsNonCandidateLeader) {
  AwareConfigSpace space(13, 4);
  CandidateSet k;
  for (ReplicaId id = 1; id < 13; ++id) {
    k.candidates.push_back(id);
  }
  RoleConfig cfg;
  cfg.leader = 0;
  cfg.weight_max.assign(13, 0);
  EXPECT_FALSE(space.Valid(cfg, k));
}

// --- Sensor timeout table ----------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

// Example C.1's three phases written out directly, as a reference the
// shared AwarePreparedMs path must reproduce bit for bit.
double ReferenceQuorum(std::vector<std::pair<double, double>> arrivals,
                       double quorum, uint32_t u) {
  std::sort(arrivals.begin(), arrivals.end());
  double acc = 0.0;
  for (size_t i = u; i < arrivals.size(); ++i) {
    acc += arrivals[i].second;
    if (acc >= quorum) {
      return arrivals[i].first;
    }
  }
  return kInf;
}

double ReferencePrepared(const RoleConfig& cfg, const WeightScheme& s,
                         const LatencyMatrix& m, uint32_t u, ReplicaId b) {
  std::vector<std::pair<double, double>> writes;
  for (ReplicaId a = 0; a < s.n; ++a) {
    const double propose = a == cfg.leader ? 0.0 : m.Rtt(cfg.leader, a);
    writes.emplace_back(a == b ? propose : propose + m.Rtt(a, b), WeightOf(cfg, s, a));
  }
  return ReferenceQuorum(writes, s.quorum_weight, u);
}

double ReferenceRound(const RoleConfig& cfg, const WeightScheme& s,
                      const LatencyMatrix& m, uint32_t u) {
  std::vector<std::pair<double, double>> accepts;
  for (ReplicaId b = 0; b < s.n; ++b) {
    const double prepared = ReferencePrepared(cfg, s, m, u, b);
    accepts.emplace_back(b == cfg.leader ? prepared : prepared + m.Rtt(b, cfg.leader),
                         WeightOf(cfg, s, b));
  }
  return ReferenceQuorum(accepts, s.quorum_weight, u);
}

// Random RTTs with some pairs reported unreachable (inf) and some never
// reported at all (also inf through Rtt).
LatencyMatrix RandomHoleyMatrix(uint32_t n, Rng& rng) {
  LatencyMatrix m(n);
  for (ReplicaId a = 0; a < n; ++a) {
    for (ReplicaId b = 0; b < n; ++b) {
      const uint64_t roll = rng.Below(20);
      if (a == b || roll == 0) {
        continue;
      }
      m.Record(a, b, roll == 1 ? kInf : rng.Uniform(1.0, 300.0));
    }
  }
  return m;
}

TEST(AwareTimeoutTable, PreparedTimesReproduceEveryTimeoutExactly) {
  const std::pair<uint32_t, uint32_t> kSizes[] = {{4, 1}, {7, 1}, {13, 4}, {21, 6}};
  Rng rng(11);
  for (const auto& [n, f] : kSizes) {
    const AwareConfigSpace space(n, f);
    const WeightScheme& s = space.scheme();
    for (int trial = 0; trial < 6; ++trial) {
      const LatencyMatrix m = RandomHoleyMatrix(n, rng);
      const RoleConfig cfg = space.RandomConfig(AllCandidates(n), rng);
      for (uint32_t u = 0; u <= f; ++u) {
        std::vector<double> prepared;
        AwarePreparedMs(cfg, s, m, u, prepared);
        ASSERT_EQ(prepared.size(), n);
        const double round = AwareRoundDurationMs(cfg, s, m, u);
        EXPECT_EQ(AwareRoundFromPreparedMs(cfg, s, m, u, prepared), round);
        EXPECT_EQ(round, ReferenceRound(cfg, s, m, u));
        for (ReplicaId from = 0; from < n; ++from) {
          EXPECT_EQ(prepared[from], ReferencePrepared(cfg, s, m, u, from));
          for (ReplicaId to = 0; to < n; ++to) {
            // The harness's per-Accept read: prepared(from) plus the hop.
            const double table = prepared[from] + (from == to ? 0.0 : m.Rtt(from, to));
            EXPECT_EQ(table, AwareAcceptTimeoutMs(cfg, s, m, from, to, u))
                << "n=" << n << " u=" << u << " " << from << "->" << to;
          }
        }
      }
    }
  }
}

std::unique_ptr<Deployment> OptiAwareUnderAttack(ReplicaId* attacker) {
  PbftOptions opts;
  opts.optimize_at = 5 * kSec;
  opts.delta = 1.5;
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kOptiAware)
               .WithPbftOptions(opts)
               .Build();
  Deployment* raw = d.get();
  raw->sim().ScheduleAt(15 * kSec, [raw, attacker] {
    *attacker = raw->pbft().config().leader;
    auto& faults = raw->faults().Mutable(*attacker);
    faults.proposal_delay = 600 * kMsec;
    faults.fast_probes = true;
  });
  return d;
}

TEST(AwareTimeoutTable, HarnessRebuildsExactlyWhenAnInputMoves) {
  ReplicaId attacker = kNoReplica;
  auto d = OptiAwareUnderAttack(&attacker);
  PbftHarness& pbft = d->pbft();
  d->Start();
  size_t reconfigs = pbft.reconfigure_times().size();
  uint64_t version = pbft.matrix().version();
  uint32_t u = pbft.pipeline().suspicion_monitor().Current().u;
  uint64_t builds = pbft.sensor_timeouts().builds;
  int on_reconfig = 0, on_matrix = 0, on_u = 0;
  for (SimTime t = 100 * kMsec; t <= 45 * kSec; t += 100 * kMsec) {
    d->RunUntil(t);
    const size_t now_reconfigs = pbft.reconfigure_times().size();
    const uint64_t now_version = pbft.matrix().version();
    const uint32_t now_u = pbft.pipeline().suspicion_monitor().Current().u;
    const auto& table = pbft.sensor_timeouts();
    if (now_reconfigs != reconfigs || now_version != version || now_u != u) {
      EXPECT_GT(table.builds, builds) << "stale table at t=" << t;
      on_reconfig += now_reconfigs != reconfigs;
      on_matrix += now_version != version;
      on_u += now_u != u;
    }
    // Memoized: a second read with nothing moved rebuilds nothing.
    builds = table.builds;
    EXPECT_EQ(pbft.sensor_timeouts().builds, builds);
    // And the table holds exactly what the per-message functions compute.
    EXPECT_EQ(table.matrix_version, now_version);
    EXPECT_EQ(table.u, now_u);
    EXPECT_EQ(table.d_rnd_ms,
              AwareRoundDurationMs(pbft.config(), pbft.scheme(), pbft.matrix(), now_u));
    for (ReplicaId from = 0; from < pbft.options().n; ++from) {
      const ReplicaId to = (from + 1) % pbft.options().n;
      EXPECT_EQ(table.prepared_ms[from] + pbft.matrix().Rtt(from, to),
                AwareAcceptTimeoutMs(pbft.config(), pbft.scheme(), pbft.matrix(),
                                     from, to, now_u));
    }
    reconfigs = now_reconfigs;
    version = now_version;
    u = now_u;
  }
  ASSERT_NE(attacker, kNoReplica);
  EXPECT_GT(on_reconfig, 0);
  EXPECT_GT(on_matrix, 0);
  EXPECT_GT(on_u, 0);
}

// Feeds every replica a Write and an Accept from `sender` (not a replica)
// for the instances in flight, every 20 ms from `from_time` on.
void InjectForeignVotes(Deployment* d, ReplicaId sender, SimTime from_time) {
  d->sim().ScheduleAt(from_time, [d, sender] {
    PbftHarness& pbft = d->pbft();
    const uint64_t seq = pbft.committed_instances();
    for (ReplicaId to = 0; to < pbft.options().n; ++to) {
      for (uint64_t s = seq; s < seq + 2; ++s) {
        for (bool accept : {false, true}) {
          auto vote = d->sim().pool().Make<PhaseMsg>();
          vote->accept = accept;
          vote->seq = s;
          d->net().Send(sender, to, std::move(vote));
        }
      }
    }
    InjectForeignVotes(d, sender, d->sim().now() + 20 * kMsec);
  });
}

TEST(AwareTimeoutTable, VotesFromBeyondTheReplicaSetAreIgnored) {
  // A client id (>= n) sending Writes and Accepts must neither count
  // toward a quorum nor reach the timeout table's per-replica entries: the
  // run must match a clean twin in every replica-side outcome.
  ReplicaId attacker_a = kNoReplica, attacker_b = kNoReplica;
  auto clean = OptiAwareUnderAttack(&attacker_a);
  auto noisy = OptiAwareUnderAttack(&attacker_b);
  const ReplicaId client = noisy->pbft().options().n;  // the first client
  InjectForeignVotes(noisy.get(), client, 10 * kSec);
  for (Deployment* d : {clean.get(), noisy.get()}) {
    d->Start();
    d->RunUntil(30 * kSec);
  }
  PbftHarness& a = clean->pbft();
  PbftHarness& b = noisy->pbft();
  EXPECT_EQ(a.committed_instances(), b.committed_instances());
  EXPECT_EQ(a.log().head(), b.log().head());
  EXPECT_EQ(a.suspicion_times(), b.suspicion_times());
  EXPECT_EQ(a.reconfigure_times(), b.reconfigure_times());
  EXPECT_EQ(a.sensor_timeouts().builds, b.sensor_timeouts().builds);
  const auto& sa = a.client(1).samples();
  const auto& sb = b.client(1).samples();
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].at, sb[i].at);
  }
}

}  // namespace
}  // namespace optilog
