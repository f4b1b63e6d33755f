// Tree scoring (Definition 1, §6.3) and OptiTree timeout derivation
// (Appendix D, Lemma 6 / TR1-TR3).
//
// score(k, tau) = minimum latency for the root to collect votes from k
// nodes. Following the paper, all quantities are in the units of the
// latency matrix L, which stores round-trip times: the aggregation latency
// of an intermediate I is max over children V of L(I, V), and an aggregate
// reaches the root after another L(I, R). The root's own vote is free.
//
// The min-over-subsets in Definition 1 is computed by sorting subtrees by
// their aggregate arrival time and taking the shortest prefix covering
// k - 1 nodes — any optimal subset is a prefix of that order.
#pragma once

#include <utility>
#include <vector>

#include "src/core/latency_monitor.h"
#include "src/tree/topology.h"

namespace optilog {

// score(k, tau). Returns +inf if the tree cannot deliver k votes at all
// (e.g. unknown links or not enough subtree coverage).
double TreeScore(const TreeTopology& tree, const LatencyMatrix& latency, uint32_t k);

// score(k, tau) of the tree TreeTopology::Build(internals, leaves) would
// make (leaf i under internals[1 + i % b]), computed straight from that
// layout without building it; bit-equal to TreeScore of the built tree.
// One scratch buffer is reused across calls, so the SA inner loop
// (AnnealTree) scores candidates without allocating.
class TreeLayoutScorer {
 public:
  TreeLayoutScorer(const LatencyMatrix& latency, uint32_t k) : latency_(latency), k_(k) {}

  double Score(const std::vector<ReplicaId>& internals,
               const std::vector<ReplicaId>& leaves);

 private:
  const LatencyMatrix& latency_;
  const uint32_t k_;
  std::vector<std::pair<double, uint32_t>> subtrees_;  // (arrival, coverage)
};

// Expected round duration for the suspicion sensor: the paper uses the same
// score function (d_rnd = score(q + u, tau)).
double TreeRoundDurationMs(const TreeTopology& tree, const LatencyMatrix& latency,
                           uint32_t q, uint32_t u);

// Per-message timeouts d_m relative to the proposal timestamp (Lemma 6):
//   Propose (root -> intermediate I):      L(R, I)
//   Forwarded propose (I -> leaf V):       L(R, I) + L(I, V)
//   Vote (leaf V -> I):                    L(R, I) + 2 * L(I, V)
//   Aggregated vote (I -> root):           L(R, I) + Lagg(I) + L(I, R)
double TreeProposeTimeoutMs(const TreeTopology& tree, const LatencyMatrix& latency,
                            ReplicaId intermediate);
double TreeForwardTimeoutMs(const TreeTopology& tree, const LatencyMatrix& latency,
                            ReplicaId leaf);
double TreeVoteTimeoutMs(const TreeTopology& tree, const LatencyMatrix& latency,
                         ReplicaId leaf);
double TreeAggregateTimeoutMs(const TreeTopology& tree, const LatencyMatrix& latency,
                              ReplicaId intermediate);

// Aggregation latency Lagg(I) = max over children of L(I, V).
double AggregationLatencyMs(const TreeTopology& tree, const LatencyMatrix& latency,
                            ReplicaId intermediate);

}  // namespace optilog
