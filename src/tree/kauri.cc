#include "src/tree/kauri.h"

#include <algorithm>

#include "src/tree/tree_score.h"
#include "src/util/check.h"

namespace optilog {

KauriScheduler::KauriScheduler(uint32_t n, uint64_t seed) : n_(n), rng_(seed) {
  const uint32_t internals = BranchFactorFor(n) + 1;  // i = b + 1
  const uint32_t t = n / internals;                   // number of bins
  std::vector<ReplicaId> order(n);
  for (ReplicaId id = 0; id < n; ++id) {
    order[id] = id;
  }
  rng_.Shuffle(order);
  bins_.resize(t);
  for (uint32_t bin = 0; bin < t; ++bin) {
    for (uint32_t j = 0; j < internals; ++j) {
      bins_[bin].push_back(order[bin * internals + j]);
    }
  }
}

std::optional<TreeTopology> KauriScheduler::NextTree() {
  if (next_bin_ >= bins_.size()) {
    return std::nullopt;
  }
  std::vector<ReplicaId> internals = bins_[next_bin_++];
  rng_.Shuffle(internals);  // random positions within the bin
  std::vector<ReplicaId> leaves;
  for (ReplicaId id = 0; id < n_; ++id) {
    if (std::find(internals.begin(), internals.end(), id) == internals.end()) {
      leaves.push_back(id);
    }
  }
  rng_.Shuffle(leaves);
  return TreeTopology::Build(internals, leaves);
}

TreeTopology KauriScheduler::StarFallback() const {
  std::vector<ReplicaId> leaves;
  for (ReplicaId id = 1; id < n_; ++id) {
    leaves.push_back(id);
  }
  return TreeTopology::Build({0}, leaves);
}

TreeTopology RandomTree(uint32_t n, Rng& rng) {
  const uint32_t internals_needed = BranchFactorFor(n) + 1;
  std::vector<ReplicaId> order(n);
  for (ReplicaId id = 0; id < n; ++id) {
    order[id] = id;
  }
  rng.Shuffle(order);
  std::vector<ReplicaId> internals(order.begin(), order.begin() + internals_needed);
  std::vector<ReplicaId> leaves(order.begin() + internals_needed, order.end());
  return TreeTopology::Build(internals, leaves);
}

namespace {

// The (internals, leaves) pair TreeTopology::Build consumes; AnnealTree
// searches over layouts and builds a tree only for the best one.
struct TreeLayout {
  std::vector<ReplicaId> internals;
  std::vector<ReplicaId> leaves;
};

}  // namespace

TreeTopology AnnealTree(uint32_t n, const std::vector<ReplicaId>& internal_candidates,
                        const LatencyMatrix& latency, uint32_t k, Rng& rng,
                        const AnnealingParams& params) {
  OL_CHECK(!internal_candidates.empty());
  const uint32_t internals_needed = BranchFactorFor(n) + 1;
  OL_CHECK(internal_candidates.size() >= internals_needed);
  std::vector<uint8_t> is_candidate(n, 0);
  for (ReplicaId id : internal_candidates) {
    OL_CHECK(id < n);
    is_candidate[id] = 1;
  }

  // Writes the ids outside `ints` to *leaves in ascending order and returns
  // how many of them are internal candidates. is_internal is all zero
  // between calls.
  std::vector<uint8_t> is_internal(n, 0);
  auto other_ids = [&](const std::vector<ReplicaId>& ints, std::vector<ReplicaId>* leaves) {
    leaves->clear();
    for (ReplicaId id : ints) {
      is_internal[id] = 1;
    }
    size_t candidates = 0;
    for (ReplicaId id = 0; id < n; ++id) {
      if (!is_internal[id]) {
        leaves->push_back(id);
        candidates += is_candidate[id];
      }
    }
    for (ReplicaId id : ints) {
      is_internal[id] = 0;
    }
    return candidates;
  };

  // Initial layout: random internals from the candidate pool.
  std::vector<ReplicaId> pool = internal_candidates;
  rng.Shuffle(pool);
  TreeLayout initial;
  initial.internals.assign(pool.begin(), pool.begin() + internals_needed);
  other_ids(initial.internals, &initial.leaves);
  rng.Shuffle(initial.leaves);

  TreeLayoutScorer scorer(latency, k);
  auto score = [&](const TreeLayout& l) { return scorer.Score(l.internals, l.leaves); };
  // Each neighbour starts from the current internals and the non-internal
  // ids in ascending order (a leaf swap does not carry into the next
  // neighbour), then applies one move: swap an internal with a candidate
  // leaf, swap two leaves, or swap two internals' positions.
  auto neighbor = [&](const TreeLayout& cur, Rng& r, TreeLayout* out) {
    std::vector<ReplicaId>& ints = out->internals;
    std::vector<ReplicaId>& lvs = out->leaves;
    ints = cur.internals;
    const size_t eligible = other_ids(ints, &lvs);  // candidate leaves
    const uint64_t move = r.Below(3);
    if (move == 0) {
      if (eligible > 0) {
        size_t li = 0;  // the drawn candidate leaf, counted in leaf order
        for (uint64_t skip = r.Below(eligible);; ++li) {
          if (is_candidate[lvs[li]] && skip-- == 0) {
            break;
          }
        }
        const size_t ii = static_cast<size_t>(r.Below(ints.size()));
        std::swap(ints[ii], lvs[li]);
      }
    } else if (move == 1 && lvs.size() >= 2) {
      const size_t a = static_cast<size_t>(r.Below(lvs.size()));
      size_t b = static_cast<size_t>(r.Below(lvs.size() - 1));
      if (b >= a) {
        ++b;
      }
      std::swap(lvs[a], lvs[b]);
    } else if (ints.size() >= 2) {
      const size_t a = static_cast<size_t>(r.Below(ints.size()));
      size_t b = static_cast<size_t>(r.Below(ints.size() - 1));
      if (b >= a) {
        ++b;
      }
      std::swap(ints[a], ints[b]);
    }
  };
  const TreeLayout best =
      SimulatedAnnealingInPlace(std::move(initial), score, neighbor, rng, params).best;
  return TreeTopology::Build(best.internals, best.leaves);
}

std::optional<TreeTopology> KauriSaScheduler::NextTree(const LatencyMatrix& latency,
                                                       const AnnealingParams& params) {
  const uint32_t internals_needed = BranchFactorFor(n_) + 1;
  std::vector<ReplicaId> candidates;
  for (ReplicaId id = 0; id < n_; ++id) {
    if (burned_.count(id) == 0) {
      candidates.push_back(id);
    }
  }
  if (candidates.size() < internals_needed) {
    return std::nullopt;
  }
  // Kauri-sa has no u estimate: it must budget for the worst case f.
  return AnnealTree(n_, candidates, latency, k_, rng_, params);
}

void KauriSaScheduler::BurnInternals(const TreeTopology& tree) {
  for (ReplicaId id : tree.Internals()) {
    burned_.insert(id);
  }
}

}  // namespace optilog
