// The metrics field table (src/util/metrics_schema.h): every fingerprinted
// row moves MetricsFingerprint and no other row does; the shard merge folds
// each row by its declared policy; and on real 2-shard deployments the sum
// and max rows of ShardedDeployment::Metrics match the per-shard reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/rsm/metrics.h"
#include "src/runner/scenario.h"
#include "src/shard/sharded_deployment.h"

namespace optilog {
namespace {

using Series = std::vector<TimeseriesReport::Series>;

// One leaf row of the MetricsReport table, with type-erased access to its
// field in any report.
struct Row {
  std::string key;
  Emit emit;
  Agg agg;
  Agg section;  // the enclosing Section's policy (kRows at the top level)
  bool event_core;
  std::function<const void*(MetricsReport&)> addr;
  std::function<void(MetricsReport&)> bump;
  // Gives the field a distinct value per (row index, shard index).
  std::function<void(MetricsReport&, int shard)> seed;
  // Writes into `out` what policy `agg` makes of the shards' values.
  std::function<void(MetricsReport& out, std::vector<MetricsReport>& shards,
                     Agg agg)>
      expect;
  std::function<bool(MetricsReport&, MetricsReport&)> equal;
};

template <typename T>
void Bump(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = !v;
  } else if constexpr (std::is_arithmetic_v<T>) {
    v = static_cast<T>(v + 1);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v += "ab";
  } else if constexpr (std::is_same_v<T, Series>) {
    v.push_back({"extra", {2.0}});
  } else {
    v.push_back({});
  }
}

template <typename T>
T Seeded(int row, int shard) {
  if constexpr (std::is_same_v<T, bool>) {
    return true;
  } else if constexpr (std::is_floating_point_v<T>) {
    return shard == 0 ? row + 0.5 : 2.0 * row + 0.25;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return static_cast<T>(shard == 0 ? row + 1 : 2 * row + 5);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return (shard == 0 ? "a" : "b") + std::to_string(row);
  } else if constexpr (std::is_same_v<T, Series>) {
    return {{shard == 0 ? "x" : "y", {static_cast<double>(row + shard)}}};
  } else if (shard == 0) {
    return {static_cast<typename T::value_type>(row + 9), 3};
  } else {
    return {5, static_cast<typename T::value_type>(row), 7};
  }
}

// The declared policy, written out independently of the production fold.
template <typename T>
T Expected(Agg agg, const std::vector<T>& v, const std::vector<double>& w,
           const T& dflt) {
  if constexpr (std::is_same_v<T, bool>) {
    return agg == Agg::kMax ? std::count(v.begin(), v.end(), true) > 0 : dflt;
  } else if constexpr (std::is_arithmetic_v<T>) {
    T out{};
    double num = 0.0;
    double den = 0.0;
    bool all = true;
    for (size_t i = 0; i < v.size(); ++i) {
      out = agg == Agg::kMax ? std::max(out, v[i]) : static_cast<T>(out + v[i]);
      num += static_cast<double>(v[i]) * w[i];
      den += w[i];
      all = all && v[i] != 0;
    }
    switch (agg) {
      case Agg::kSum:
      case Agg::kMax:
        return out;
      case Agg::kAnd:
        return all ? 1 : 0;
      case Agg::kWeightedMean:
        return static_cast<T>(den > 0 ? num / den : 0.0);
      default:
        return dflt;
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (agg != Agg::kDigestOfDigests) {
      return dflt;
    }
    std::string concat;
    for (const std::string& s : v) {
      concat += s;
    }
    return DigestHex(Sha256::Hash(concat));  // callers seed agreeing shards
  } else if constexpr (std::is_same_v<T, Series>) {
    T out;
    for (size_t i = 0; i < v.size(); ++i) {
      for (const auto& s : v[i]) {
        out.push_back({"s" + std::to_string(i) + "." + s.name, s.values});
      }
    }
    return agg == Agg::kPrefixedConcat ? out : dflt;
  } else {
    T out;
    for (const T& x : v) {
      if (agg == Agg::kElementwiseSum) {
        out.resize(std::max(out.size(), x.size()), 0);
        for (size_t i = 0; i < x.size(); ++i) {
          out[i] += x[i];
        }
      } else if (agg == Agg::kSortedConcat) {
        out.insert(out.end(), x.begin(), x.end());
      }
    }
    if (agg == Agg::kSortedConcat) {
      std::sort(out.begin(), out.end());
    }
    return agg == Agg::kElementwiseSum || agg == Agg::kSortedConcat ? out
                                                                     : dflt;
  }
}

template <typename R>
struct Collect {
  std::function<R&(MetricsReport&)> at;
  Agg section;
  std::vector<Row>& rows;

  template <typename T>
  void operator()(T R::*field, const char* key, Emit emit, Agg agg) {
    const int index = static_cast<int>(rows.size());
    auto at = this->at;
    auto get = [at, field](MetricsReport& m) -> T& { return at(m).*field; };
    Row row;
    row.key = key != nullptr ? key : "(no JSON key)";
    row.emit = emit;
    row.agg = agg;
    row.section = section;
    row.event_core = std::is_same_v<R, EventCoreStats>;
    row.addr = [get](MetricsReport& m) -> const void* { return &get(m); };
    row.bump = [get](MetricsReport& m) { Bump(get(m)); };
    row.seed = [get, index](MetricsReport& m, int shard) {
      get(m) = Seeded<T>(index, shard);
    };
    row.expect = [get](MetricsReport& out, std::vector<MetricsReport>& shards,
                       Agg agg) {
      std::vector<T> values;
      std::vector<double> weights;
      for (MetricsReport& s : shards) {
        values.push_back(get(s));
        weights.push_back(static_cast<double>(s.committed));
      }
      MetricsReport fresh;
      get(out) = Expected<T>(agg, values, weights, get(fresh));
    };
    row.equal = [get](MetricsReport& a, MetricsReport& b) {
      if constexpr (std::is_same_v<T, Series>) {
        if (get(a).size() != get(b).size()) {
          return false;
        }
        for (size_t i = 0; i < get(a).size(); ++i) {
          if (get(a)[i].name != get(b)[i].name ||
              get(a)[i].values != get(b)[i].values) {
            return false;
          }
        }
        return true;
      } else {
        return get(a) == get(b);
      }
    };
    rows.push_back(std::move(row));
  }
  template <typename Sub>
  void Section(Sub R::*member, Agg agg) {
    auto at = this->at;
    Sub::Schema(Collect<Sub>{
        [at, member](MetricsReport& m) -> Sub& { return at(m).*member; }, agg,
        rows});
  }
  template <typename Sub>
  void Gate(Sub R::*, const char*) {}
  void Mark(const char*) {}
};

std::vector<Row> AllRows() {
  std::vector<Row> rows;
  MetricsReport::Schema(Collect<MetricsReport>{
      [](MetricsReport& m) -> MetricsReport& { return m; }, Agg::kRows, rows});
  return rows;
}

// Every section switched on, so every gated row is live.
MetricsReport AllSectionsOn(uint32_t partitions) {
  MetricsReport m;
  m.workload.enabled = true;
  m.statemachine.enabled = true;
  m.txn.enabled = true;
  m.timeseries.enabled = true;
  m.crypto.enabled = true;
  m.event_core.partitions = partitions;
  return m;
}

TEST(MetricsSchema, EveryLeafFieldIsOneRow) {
  std::vector<Row> rows = AllRows();
  MetricsReport m;
  std::set<const void*> fields;
  for (Row& row : rows) {
    EXPECT_TRUE(fields.insert(row.addr(m)).second) << row.key;
  }
}

TEST(MetricsSchema, FingerprintMovesExactlyWithFingerprintedRows) {
  std::set<std::string> never_hashed;
  for (Row& row : AllRows()) {
    for (uint32_t partitions : {1u, 2u}) {
      if (row.emit == Emit::kMultiPartition && partitions == 1) {
        continue;  // bumping the count from 1 switches the whole layout
      }
      MetricsReport base = AllSectionsOn(partitions);
      MetricsReport changed = base;
      row.bump(changed);
      const bool moved = MetricsFingerprint(changed) != MetricsFingerprint(base);
      const bool hashed =
          Fingerprinted(row.emit, partitions) || row.emit == Emit::kGate;
      EXPECT_EQ(moved, hashed) << row.key << " at partitions=" << partitions;
    }
    if (row.emit == Emit::kJsonOnly || row.emit == Emit::kAdvisory) {
      never_hashed.insert(row.key);
    }
  }
  // wall_seconds is the one row without a JSON key.
  const std::set<std::string> expected = {
      "wheel_overflow_events", "message_pool_hits",    "message_pool_misses",
      "(no JSON key)",         "lookahead_us",         "barrier_count",
      "partition_ev_per_sec"};
  EXPECT_EQ(never_hashed, expected);
}

TEST(MetricsSchema, GatedSectionsStayOutOfTheFingerprintWhenOff) {
  MetricsReport off;
  MetricsReport changed = off;
  changed.wire_bytes = 7;  // fingerprinted only inside the crypto section
  changed.txn.committed = 3;
  changed.timeseries.interval = 5;
  EXPECT_EQ(MetricsFingerprint(changed), MetricsFingerprint(off));
  changed.crypto.enabled = true;
  EXPECT_NE(MetricsFingerprint(changed), MetricsFingerprint(off));
}

TEST(MetricsSchema, MergeFoldsEachRowByItsPolicy) {
  std::vector<Row> rows = AllRows();
  std::vector<MetricsReport> shards(2);
  for (int s = 0; s < 2; ++s) {
    for (Row& row : rows) {
      row.seed(shards[s], s);
    }
    shards[s].statemachine.digests_equal = 1;  // agreeing shards
  }
  MetricsReport merged;
  FoldReports(merged, shards);
  MetricsReport expected;
  for (Row& row : rows) {
    row.expect(expected, shards,
               row.section == Agg::kNone ? Agg::kNone : row.agg);
    EXPECT_TRUE(row.equal(merged, expected)) << row.key;
  }

  // A disagreeing shard clears the digest of digests; a shard whose section
  // is off is left out of that section's fold.
  shards[1].statemachine.digests_equal = 0;
  shards[1].statemachine.state_digest_hex = "";
  shards[1].crypto.enabled = false;
  merged = MetricsReport{};
  FoldReports(merged, shards);
  EXPECT_EQ(merged.statemachine.digests_equal, 0u);
  EXPECT_EQ(merged.statemachine.state_digest_hex, "");
  EXPECT_EQ(merged.crypto.signs, shards[0].crypto.signs);
  EXPECT_EQ(merged.wire_bytes, shards[0].wire_bytes + shards[1].wire_bytes);
}

// --- real 2-shard deployments ------------------------------------------------

Deployment::Builder TwoShards(uint64_t seed) {
  WorkloadOptions w;
  w.clients = 6;
  w.arrival = ArrivalProcess::kClosedLoop;
  w.outstanding = 1;
  w.think_time = 10 * kMsec;
  w.batch.max_batch = 32;
  w.batch.max_delay = 10 * kMsec;
  StateMachineOptions sm;
  sm.checkpoint.interval = 64;
  sm.checkpoint.truncate = true;
  Deployment::Builder b;
  b.WithGeo(Europe21())
      .WithReplicas(7, 2)
      .WithProtocol(Protocol::kHotStuff)
      .WithSeed(seed)
      .WithWorkload(w)
      .WithStateMachine(sm)
      .WithShards(2);
  return b;
}

// Sum rows equal the sum of the per-shard reports and max rows their max;
// the event core is summed over the partition schedulers instead.
void ExpectSumsAndMaxima(ShardedDeployment& sd) {
  MetricsReport agg = sd.Metrics();
  std::vector<MetricsReport> shards;
  for (uint32_t s = 0; s < sd.shards(); ++s) {
    shards.push_back(sd.ShardMetrics(s));
  }
  std::vector<MetricsReport> partitions;
  for (uint32_t s = 0; s < sd.shards(); ++s) {
    partitions.emplace_back().event_core = sd.ShardSim(s).event_core_stats();
  }
  if (sd.partitions() > sd.shards()) {
    partitions.emplace_back().event_core = sd.ClientSim().event_core_stats();
  }
  ASSERT_EQ(partitions.size(), sd.partitions());
  int checked = 0;
  for (Row& row : AllRows()) {
    if (row.agg != Agg::kSum && row.agg != Agg::kMax) {
      continue;
    }
    if (row.section == Agg::kNone && !row.event_core) {
      continue;  // txn: filled by the transaction fleet, not folded
    }
    MetricsReport expected;
    row.expect(expected, row.event_core ? partitions : shards, row.agg);
    EXPECT_TRUE(row.equal(agg, expected)) << row.key;
    ++checked;
  }
  EXPECT_GT(checked, 40);
}

TEST(MetricsSchema, TwoShardAggregateSumsAndMaxesShardReports) {
  auto sd = TwoShards(21).BuildSharded();
  sd->Start();
  sd->RunUntil(6 * kSec);
  ASSERT_GT(sd->Metrics().committed, 0u);
  ExpectSumsAndMaxima(*sd);
}

TEST(MetricsSchema, TwoShardTxnAggregateSumsAndMaxesShardReports) {
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 4;
  txn.keys_per_txn = 2;
  txn.think_time = 5 * kMsec;
  auto sd = TwoShards(23)
                .WithCrossShardRatio(0.5)
                .WithTxnWorkload(txn)
                .BuildSharded();
  sd->Start();
  sd->RunUntil(6 * kSec);
  ASSERT_GT(sd->Metrics().txn.committed, 0u);
  ExpectSumsAndMaxima(*sd);
}

}  // namespace
}  // namespace optilog
