// Row attributes of the metrics field tables. Every report struct
// (MetricsReport and its sections in src/rsm/metrics.h, EventCoreStats in
// src/sim/event_core.h) has one static `Schema(v)` that calls the visitor
// once per field, in fingerprint order:
//
//   v(&S::field, "json_key", Emit::..., Agg::...);  // one leaf row
//   v.Section(&S::nested, Agg::...);                // the nested struct's rows
//   v.Gate(&S::nested, "tag");  // rows up to the next Gate are fingerprinted
//                               // only when nested.enabled, after "tag|"
//   v.Mark("|");                // a fingerprint literal
//
// MetricsFingerprint, the runner's event_core JSON and FoldReports walk
// these tables instead of naming fields, so a new metric is one row.
#pragma once

#include <cstdint>

// A leaf row whose JSON key is the member's own name, inside a Schema body
// whose struct is `S`.
#define OL_METRIC(field, emit, agg) v(&S::field, #field, Emit::emit, Agg::agg)

namespace optilog {

// Where a row's value is reported.
enum class Emit : uint8_t {
  kFingerprint,      // MetricsFingerprint and the deterministic JSON body
  kSinglePartition,  // as kFingerprint at partitions == 1 only
  kMultiPartition,   // as kFingerprint at partitions > 1 only, after "par|"
  kJsonOnly,         // deterministic JSON body only, never fingerprinted
  kAdvisory,         // wall-clock or driver dependent: full JSON at most
  kGate,             // a gated section's `enabled`: its Gate tag stands in
};

// Whether a row is fingerprinted (and, for event_core, in the deterministic
// JSON body) on a run over `partitions` event cores: the partition swap.
constexpr bool Fingerprinted(Emit emit, uint32_t partitions) {
  return emit == Emit::kFingerprint ||
         (emit == Emit::kSinglePartition && partitions == 1) ||
         (emit == Emit::kMultiPartition && partitions > 1);
}

// How FoldReports combines the parts (shards, partitions) of a report.
enum class Agg : uint8_t {
  kSum,
  kMax,              // OR for flags
  kElementwiseSum,   // per-second series, padded to the longest
  kWeightedMean,     // mean weighted by the same report's `committed`
  kSortedConcat,     // event-time lists, concatenated then sorted
  kAnd,              // agreement flag: 1 only if every part says 1
  kDigestOfDigests,  // SHA-256 of the ordered part digests; "" if any is ""
  kPrefixedConcat,   // gauge series side by side under "s<i>." prefixes
  kRows,             // a section: its rows, over the parts that enable it
  kNone,             // not aggregated
};

}  // namespace optilog
