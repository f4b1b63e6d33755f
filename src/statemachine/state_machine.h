// The deterministic replicated state machine the committed log drives.
//
// Consensus orders opaque operation byte strings; every correct replica
// applies them in log order to its own StateMachine instance, so all
// replicas materialize identical state — the property the paper's whole
// argument rests on (§1) and the one this module makes checkable:
// StateDigest() is a SHA-256 over the canonical state encoding, compared
// across replicas at every checkpoint and at run end.
//
// KvStateMachine is the concrete machine the workload layer drives: a
// uint64 -> uint64 map with read (Get), blind write (Put), and
// read-modify-write (Add) operations. Apply returns an encoded KvResult the
// committing replica sends back in its client reply, which the client
// cross-checks against a model oracle (src/workload/). The keys live in a
// flat open-addressing table (every committed op is applied by every
// replica, so this lookup is the data plane's hottest path); snapshots sort
// the entries by key, so snapshot bytes are byte-identical across replicas
// by construction, not by luck.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/sim/ids.h"
#include "src/util/bytes.h"

namespace optilog {

enum class KvOpKind : uint8_t {
  kGet = 0,  // read: result carries the current value
  kPut = 1,  // blind write: result echoes the stored value
  kAdd = 2,  // read-modify-write: value += arg, result carries the new value
};

struct KvOp {
  KvOpKind kind = KvOpKind::kGet;
  uint64_t key = 0;
  uint64_t arg = 0;  // put: value to store; add: delta; get: unused

  Bytes Encode() const;
  // Returns false (leaving *out untouched) on malformed input — committed
  // bytes can come from a Byzantine proposer.
  static bool Decode(const Bytes& in, KvOp* out);
};

struct KvResult {
  bool found = false;     // key existed before the op
  uint64_t value = 0;     // get: current; put: stored; add: new value

  Bytes Encode() const;
  static bool Decode(const Bytes& in, KvResult* out);
};

// --- cross-shard transactions (src/shard/) ----------------------------------
//
// Transaction records share the committed-operation byte stream with plain
// KvOps: their first byte is a tag >= 0x10, disjoint from KvOpKind (0..2),
// so legacy operations decode exactly as before. Each record is an ordinary
// log entry — replicated, snapshotted, and replayed by the existing
// machinery — which is what makes coordinator crash recovery possible: the
// home shard's committed prepare/commit records ARE the coordinator's
// durable state.
enum class TxnTag : uint8_t {
  kMulti = 0x10,    // single-shard multi-key op: atomic, aborts on any lock
  kPrepare = 0x11,  // phase 1: conflict-check, lock keys, record intent
  kCommit = 0x12,   // phase 2: apply the prepared ops, record the decision
  kAbort = 0x13,    // phase 2: drop the prepared intent and its locks
  kEnd = 0x14,      // post-reply GC: forget the decided-transaction record
};

struct KvTxnOp {
  TxnTag tag = TxnTag::kMulti;
  uint64_t txn_id = 0;           // all tags except kMulti
  std::vector<KvOp> ops;         // kMulti / kPrepare
  // Home-shard prepare records carry the coordinator's durable state: the
  // participant shard list and the originating client request identity
  // (empty / kNoReplica on remote participants).
  std::vector<uint32_t> participants;
  ReplicaId client = kNoReplica;
  uint64_t client_req = 0;

  Bytes Encode() const;
  static bool Decode(const Bytes& in, KvTxnOp* out);
  // Whether committed bytes hold a transaction record (vs a legacy KvOp).
  static bool IsTxn(const Bytes& in) {
    return !in.empty() && in[0] >= 0x10 && in[0] <= 0x14;
  }
};

// Reply to any transaction record. `ok` is the vote (kPrepare), decision
// applicability (kCommit: false = unknown transaction), or a no-op for the
// idempotent tags; `results` carries per-op KvResults for kMulti and
// kCommit, in op order.
struct KvMultiResult {
  bool ok = false;
  std::vector<KvResult> results;

  Bytes Encode() const;
  static bool Decode(const Bytes& in, KvMultiResult* out);
};

// What consensus executes at the commit boundary. Implementations must be
// deterministic: Apply's result and all subsequent state may depend only on
// the sequence of operations applied since construction (or Restore).
class StateMachine {
 public:
  virtual ~StateMachine() = default;

  // Applies one committed operation and returns the encoded reply.
  virtual Bytes Apply(const Bytes& op) = 0;

  // Canonical encoding of the full state; Restore(SnapshotBytes()) on a
  // fresh instance reproduces the machine exactly.
  virtual Bytes SnapshotBytes() const = 0;
  virtual void Restore(const Bytes& snapshot) = 0;

  // SHA-256 over the canonical state encoding. Equal digests across
  // replicas prove equal state; the fingerprint scenarios pin joins through
  // this (see MetricsFingerprint).
  virtual Digest StateDigest() const = 0;

  // Back to the initial (empty) state — what an amnesiac restart holds.
  virtual void Reset() = 0;
};

class KvStateMachine : public StateMachine {
 public:
  Bytes Apply(const Bytes& op) override;
  Bytes SnapshotBytes() const override;
  void Restore(const Bytes& snapshot) override;
  Digest StateDigest() const override;
  void Reset() override;

  size_t size() const { return size_; }
  // The (key, value) pairs in ascending key order.
  std::vector<std::pair<uint64_t, uint64_t>> state() const;

  // A prepared (in-doubt) transaction: its ops are locked but not applied.
  struct PreparedTxn {
    std::vector<KvOp> ops;
    std::vector<uint32_t> participants;  // non-empty only at the home shard
    ReplicaId client = kNoReplica;
    uint64_t client_req = 0;
  };
  // A committed transaction whose kEnd has not arrived yet, kept so commit
  // re-drives (coordinator recovery, duplicate deliveries) stay idempotent
  // and return the original results.
  struct DecidedTxn {
    std::vector<uint32_t> participants;
    ReplicaId client = kNoReplica;
    uint64_t client_req = 0;
    Bytes results;  // the encoded KvMultiResult the commit produced
  };

  // Recovery surface: a restarted coordinator reads its home shard's
  // materialized tables to re-drive decided transactions and abort in-doubt
  // ones (src/shard/txn_coordinator.cc).
  const std::map<uint64_t, PreparedTxn>& prepared() const { return prepared_; }
  const std::map<uint64_t, DecidedTxn>& decided() const { return decided_; }
  const std::map<uint64_t, uint64_t>& locks() const { return locks_; }

 private:
  KvResult ApplyOne(const KvOp& op);
  Bytes ApplyTxn(const KvTxnOp& txn);
  void Unlock(uint64_t txn_id, const std::vector<KvOp>& ops);

  // The key table: linear probing over a power-of-two slot array that is
  // at most half full, allocated on the first insert. Occupancy is a byte
  // array of its own, so every uint64 (0 and UINT64_MAX included) is a
  // valid key; KV ops never erase, so there are no tombstones.
  struct Slot {
    uint64_t key = 0;
    uint64_t value = 0;
  };
  // Index of `key`'s slot, or of the empty slot where it would go; the
  // table must be non-empty.
  size_t Probe(uint64_t key) const;
  const uint64_t* Find(uint64_t key) const;
  // The value slot for `key`, inserted as 0 when absent (second = true).
  std::pair<uint64_t*, bool> Upsert(uint64_t key);
  void Rehash(size_t slot_count);

  std::vector<Slot> slots_;
  std::vector<uint8_t> used_;  // parallel to slots_
  size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size()): the hash's index bits
  std::map<uint64_t, PreparedTxn> prepared_;
  std::map<uint64_t, DecidedTxn> decided_;
  // key -> owning txn id; derived from prepared_ (rebuilt on Restore), so
  // it stays out of the snapshot encoding.
  std::map<uint64_t, uint64_t> locks_;
};

}  // namespace optilog
