#include "src/tree/tree_score.h"

#include <algorithm>
#include <limits>

namespace optilog {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Definition 1's min over subsets, given each subtree's (arrival time at
// the root, votes it covers): the earliest arrival by which a prefix of the
// subtrees in arrival order covers the k - 1 votes beyond the root's own.
// Subtrees tied in arrival yield the same value in any order, so sort's
// tie order never shows in the result.
double EarliestCoverage(std::vector<std::pair<double, uint32_t>>& subtrees, uint32_t k) {
  std::sort(subtrees.begin(), subtrees.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  uint32_t covered = 0;
  for (const auto& [arrival, coverage] : subtrees) {
    covered += coverage;
    if (covered >= k - 1) {
      return arrival;
    }
  }
  return kInf;
}

}  // namespace

double AggregationLatencyMs(const TreeTopology& tree, const LatencyMatrix& latency,
                            ReplicaId intermediate) {
  double worst = 0.0;
  for (ReplicaId child : tree.ChildrenOf(intermediate)) {
    worst = std::max(worst, latency.Rtt(intermediate, child));
  }
  return worst;
}

double TreeScore(const TreeTopology& tree, const LatencyMatrix& latency, uint32_t k) {
  if (k <= 1) {
    return 0.0;  // the root's own vote suffices
  }
  // Arrival time and coverage (children + the intermediate itself) of each
  // subtree's aggregate at the root.
  std::vector<std::pair<double, uint32_t>> subtrees;
  subtrees.reserve(tree.intermediates().size());
  for (ReplicaId inter : tree.intermediates()) {
    subtrees.emplace_back(
        AggregationLatencyMs(tree, latency, inter) + latency.Rtt(inter, tree.root()),
        static_cast<uint32_t>(tree.ChildrenOf(inter).size()) + 1);
  }
  // Star topology (no intermediates): every child votes directly.
  if (subtrees.empty()) {
    for (ReplicaId child : tree.ChildrenOf(tree.root())) {
      subtrees.emplace_back(latency.Rtt(tree.root(), child), 1);
    }
  }
  return EarliestCoverage(subtrees, k);
}

double TreeLayoutScorer::Score(const std::vector<ReplicaId>& internals,
                               const std::vector<ReplicaId>& leaves) {
  if (k_ <= 1) {
    return 0.0;
  }
  const ReplicaId root = internals[0];
  const size_t b = internals.size() - 1;
  subtrees_.clear();
  if (b == 0) {
    for (ReplicaId leaf : leaves) {
      subtrees_.emplace_back(latency_.Rtt(root, leaf), 1);
    }
  }
  for (size_t j = 0; j < b; ++j) {
    // Intermediate j's children, in Build's order: leaves j, j + b, ...
    const ReplicaId inter = internals[1 + j];
    double worst = 0.0;
    uint32_t children = 0;
    for (size_t i = j; i < leaves.size(); i += b) {
      worst = std::max(worst, latency_.Rtt(inter, leaves[i]));
      ++children;
    }
    subtrees_.emplace_back(worst + latency_.Rtt(inter, root), children + 1);
  }
  return EarliestCoverage(subtrees_, k_);
}

double TreeRoundDurationMs(const TreeTopology& tree, const LatencyMatrix& latency,
                           uint32_t q, uint32_t u) {
  return TreeScore(tree, latency, q + u);
}

double TreeProposeTimeoutMs(const TreeTopology& tree, const LatencyMatrix& latency,
                            ReplicaId intermediate) {
  return latency.Rtt(tree.root(), intermediate);
}

double TreeForwardTimeoutMs(const TreeTopology& tree, const LatencyMatrix& latency,
                            ReplicaId leaf) {
  const ReplicaId parent = tree.ParentOf(leaf);
  return latency.Rtt(tree.root(), parent) + latency.Rtt(parent, leaf);
}

double TreeVoteTimeoutMs(const TreeTopology& tree, const LatencyMatrix& latency,
                         ReplicaId leaf) {
  const ReplicaId parent = tree.ParentOf(leaf);
  return latency.Rtt(tree.root(), parent) + 2.0 * latency.Rtt(parent, leaf);
}

double TreeAggregateTimeoutMs(const TreeTopology& tree, const LatencyMatrix& latency,
                              ReplicaId intermediate) {
  return latency.Rtt(tree.root(), intermediate) +
         AggregationLatencyMs(tree, latency, intermediate) +
         latency.Rtt(intermediate, tree.root());
}

}  // namespace optilog
