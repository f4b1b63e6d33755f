#include "src/statemachine/state_machine.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace optilog {
namespace {

// 2^64 / golden ratio. The slot index is the top bits of key * kFibonacci:
// workload keys (client << 20 | i) share their low bits across clients, so
// masking the low bits would pile every client into the same slots.
constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;
constexpr size_t kMinSlots = 16;

}  // namespace

Bytes KvOp::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  w.U8(static_cast<uint8_t>(kind));
  w.U64(key);
  w.U64(arg);
  return out;
}

bool KvOp::Decode(const Bytes& in, KvOp* out) {
  ByteReader r(in);
  KvOp op;
  op.kind = static_cast<KvOpKind>(r.U8());
  op.key = r.U64();
  op.arg = r.U64();
  if (!r.ok() || !r.Done() || op.kind > KvOpKind::kAdd) {
    return false;
  }
  *out = op;
  return true;
}

Bytes KvResult::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  w.U8(found ? 1 : 0);
  w.U64(value);
  return out;
}

bool KvResult::Decode(const Bytes& in, KvResult* out) {
  ByteReader r(in);
  KvResult res;
  res.found = r.U8() != 0;
  res.value = r.U64();
  if (!r.ok() || !r.Done()) {
    return false;
  }
  *out = res;
  return true;
}

Bytes KvTxnOp::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  w.U8(static_cast<uint8_t>(tag));
  if (tag != TxnTag::kMulti) {
    w.U64(txn_id);
  }
  if (tag == TxnTag::kMulti || tag == TxnTag::kPrepare) {
    w.U32(static_cast<uint32_t>(ops.size()));
    for (const KvOp& op : ops) {
      w.U8(static_cast<uint8_t>(op.kind));
      w.U64(op.key);
      w.U64(op.arg);
    }
  }
  if (tag == TxnTag::kPrepare) {
    w.U32(static_cast<uint32_t>(participants.size()));
    for (uint32_t p : participants) {
      w.U32(p);
    }
    w.U32(client);
    w.U64(client_req);
  }
  return out;
}

bool KvTxnOp::Decode(const Bytes& in, KvTxnOp* out) {
  ByteReader r(in);
  KvTxnOp txn;
  const uint8_t tag = r.U8();
  if (tag < static_cast<uint8_t>(TxnTag::kMulti) ||
      tag > static_cast<uint8_t>(TxnTag::kEnd)) {
    return false;
  }
  txn.tag = static_cast<TxnTag>(tag);
  if (txn.tag != TxnTag::kMulti) {
    txn.txn_id = r.U64();
  }
  if (txn.tag == TxnTag::kMulti || txn.tag == TxnTag::kPrepare) {
    const uint32_t nops = r.U32();
    if (!r.ok() || nops > r.remaining() / 17) {
      return false;
    }
    txn.ops.resize(nops);
    for (KvOp& op : txn.ops) {
      op.kind = static_cast<KvOpKind>(r.U8());
      op.key = r.U64();
      op.arg = r.U64();
      if (op.kind > KvOpKind::kAdd) {
        return false;
      }
    }
  }
  if (txn.tag == TxnTag::kPrepare) {
    const uint32_t nparts = r.U32();
    if (!r.ok() || nparts > r.remaining() / 4) {
      return false;
    }
    txn.participants.resize(nparts);
    for (uint32_t& p : txn.participants) {
      p = r.U32();
    }
    txn.client = r.U32();
    txn.client_req = r.U64();
  }
  if (!r.ok() || !r.Done()) {
    return false;
  }
  *out = std::move(txn);
  return true;
}

Bytes KvMultiResult::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  w.U8(ok ? 1 : 0);
  w.U32(static_cast<uint32_t>(results.size()));
  for (const KvResult& res : results) {
    w.U8(res.found ? 1 : 0);
    w.U64(res.value);
  }
  return out;
}

bool KvMultiResult::Decode(const Bytes& in, KvMultiResult* out) {
  ByteReader r(in);
  KvMultiResult m;
  m.ok = r.U8() != 0;
  const uint32_t count = r.U32();
  if (!r.ok() || count > r.remaining() / 9) {
    return false;
  }
  m.results.resize(count);
  for (KvResult& res : m.results) {
    res.found = r.U8() != 0;
    res.value = r.U64();
  }
  if (!r.ok() || !r.Done()) {
    return false;
  }
  *out = std::move(m);
  return true;
}

Bytes KvStateMachine::Apply(const Bytes& op_bytes) {
  if (KvTxnOp::IsTxn(op_bytes)) {
    KvTxnOp txn;
    if (!KvTxnOp::Decode(op_bytes, &txn)) {
      return KvMultiResult{}.Encode();  // malformed: deterministic vote-no
    }
    return ApplyTxn(txn);
  }
  KvOp op;
  if (!KvOp::Decode(op_bytes, &op)) {
    // Malformed committed bytes (Byzantine proposer): a deterministic no-op
    // reply, identical on every replica.
    return KvResult{}.Encode();
  }
  return ApplyOne(op).Encode();
}

size_t KvStateMachine::Probe(uint64_t key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>((key * kFibonacci) >> shift_);
  while (used_[i] && slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

const uint64_t* KvStateMachine::Find(uint64_t key) const {
  if (slots_.empty()) {
    return nullptr;
  }
  const size_t i = Probe(key);
  return used_[i] ? &slots_[i].value : nullptr;
}

std::pair<uint64_t*, bool> KvStateMachine::Upsert(uint64_t key) {
  size_t i = 0;
  if (!slots_.empty()) {
    i = Probe(key);
    if (used_[i]) {
      return {&slots_[i].value, false};
    }
  }
  if (2 * (size_ + 1) > slots_.size()) {
    Rehash(std::max(kMinSlots, 2 * slots_.size()));
    i = Probe(key);
  }
  slots_[i] = Slot{key, 0};
  used_[i] = 1;
  ++size_;
  return {&slots_[i].value, true};
}

void KvStateMachine::Rehash(size_t slot_count) {
  const std::vector<Slot> old_slots = std::exchange(slots_, std::vector<Slot>(slot_count));
  const std::vector<uint8_t> old_used = std::exchange(used_, std::vector<uint8_t>(slot_count));
  shift_ = 64 - std::countr_zero(slot_count);
  for (size_t j = 0; j < old_slots.size(); ++j) {
    if (old_used[j]) {
      const size_t i = Probe(old_slots[j].key);
      slots_[i] = old_slots[j];
      used_[i] = 1;
    }
  }
}

std::vector<std::pair<uint64_t, uint64_t>> KvStateMachine::state() const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(size_);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (used_[i]) {
      out.emplace_back(slots_[i].key, slots_[i].value);
    }
  }
  std::sort(out.begin(), out.end());  // keys are unique: sorts by key
  return out;
}

KvResult KvStateMachine::ApplyOne(const KvOp& op) {
  KvResult res;
  switch (op.kind) {
    case KvOpKind::kGet: {
      const uint64_t* value = Find(op.key);
      res.found = value != nullptr;
      res.value = res.found ? *value : 0;
      break;
    }
    case KvOpKind::kPut: {
      auto [value, inserted] = Upsert(op.key);
      *value = op.arg;
      res.found = !inserted;
      res.value = op.arg;
      break;
    }
    case KvOpKind::kAdd: {
      auto [value, inserted] = Upsert(op.key);
      *value += op.arg;
      res.found = !inserted;
      res.value = *value;
      break;
    }
  }
  return res;
}

void KvStateMachine::Unlock(uint64_t txn_id, const std::vector<KvOp>& ops) {
  for (const KvOp& op : ops) {
    auto it = locks_.find(op.key);
    if (it != locks_.end() && it->second == txn_id) {
      locks_.erase(it);
    }
  }
}

Bytes KvStateMachine::ApplyTxn(const KvTxnOp& txn) {
  KvMultiResult out;
  switch (txn.tag) {
    case TxnTag::kMulti: {
      // Single-shard fast path: atomic multi-key op, aborted (not blocked)
      // when any key sits under a prepared transaction's lock.
      for (const KvOp& op : txn.ops) {
        if (locks_.count(op.key) > 0) {
          return KvMultiResult{}.Encode();  // ok = false: client retries
        }
      }
      out.ok = true;
      out.results.reserve(txn.ops.size());
      for (const KvOp& op : txn.ops) {
        out.results.push_back(ApplyOne(op));
      }
      break;
    }
    case TxnTag::kPrepare: {
      if (decided_.count(txn.txn_id) > 0 || prepared_.count(txn.txn_id) > 0) {
        out.ok = true;  // duplicate prepare (retry): the vote stands
        break;
      }
      for (const KvOp& op : txn.ops) {
        if (locks_.count(op.key) > 0) {
          return KvMultiResult{}.Encode();  // vote no: conflicting prepare
        }
      }
      PreparedTxn p;
      p.ops = txn.ops;
      p.participants = txn.participants;
      p.client = txn.client;
      p.client_req = txn.client_req;
      for (const KvOp& op : txn.ops) {
        locks_[op.key] = txn.txn_id;
      }
      prepared_.emplace(txn.txn_id, std::move(p));
      out.ok = true;
      break;
    }
    case TxnTag::kCommit: {
      auto it = prepared_.find(txn.txn_id);
      if (it == prepared_.end()) {
        auto dit = decided_.find(txn.txn_id);
        if (dit != decided_.end()) {
          return dit->second.results;  // idempotent re-drive
        }
        return KvMultiResult{}.Encode();  // unknown transaction
      }
      out.ok = true;
      out.results.reserve(it->second.ops.size());
      for (const KvOp& op : it->second.ops) {
        out.results.push_back(ApplyOne(op));
      }
      Unlock(txn.txn_id, it->second.ops);
      DecidedTxn d;
      d.participants = it->second.participants;
      d.client = it->second.client;
      d.client_req = it->second.client_req;
      d.results = out.Encode();
      prepared_.erase(it);
      Bytes encoded = d.results;
      decided_.emplace(txn.txn_id, std::move(d));
      return encoded;
    }
    case TxnTag::kAbort: {
      auto it = prepared_.find(txn.txn_id);
      if (it != prepared_.end()) {
        Unlock(txn.txn_id, it->second.ops);
        prepared_.erase(it);
      } else if (decided_.count(txn.txn_id) > 0) {
        return KvMultiResult{}.Encode();  // decided txns cannot abort
      }
      out.ok = true;  // idempotent (presumed abort)
      break;
    }
    case TxnTag::kEnd: {
      decided_.erase(txn.txn_id);
      out.ok = true;
      break;
    }
  }
  return out.Encode();
}

Bytes KvStateMachine::SnapshotBytes() const {
  Bytes out;
  ByteWriter w(&out);
  const auto entries = state();  // ascending keys: the canonical order
  w.U64(entries.size());
  for (const auto& [key, value] : entries) {
    w.U64(key);
    w.U64(value);
  }
  // Transaction tables ride the snapshot only when present, so machines
  // that never see a transaction record keep the legacy byte encoding
  // exactly (single-group snapshots and digests are unchanged).
  if (!prepared_.empty() || !decided_.empty()) {
    w.U64(prepared_.size());
    for (const auto& [txn_id, p] : prepared_) {
      w.U64(txn_id);
      w.U32(static_cast<uint32_t>(p.ops.size()));
      for (const KvOp& op : p.ops) {
        w.U8(static_cast<uint8_t>(op.kind));
        w.U64(op.key);
        w.U64(op.arg);
      }
      w.U32(static_cast<uint32_t>(p.participants.size()));
      for (uint32_t part : p.participants) {
        w.U32(part);
      }
      w.U32(p.client);
      w.U64(p.client_req);
    }
    w.U64(decided_.size());
    for (const auto& [txn_id, d] : decided_) {
      w.U64(txn_id);
      w.U32(static_cast<uint32_t>(d.participants.size()));
      for (uint32_t part : d.participants) {
        w.U32(part);
      }
      w.U32(d.client);
      w.U64(d.client_req);
      w.Blob(d.results);
    }
  }
  return out;
}

void KvStateMachine::Restore(const Bytes& snapshot) {
  Reset();
  ByteReader r(snapshot);
  const uint64_t count = r.U64();
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    const uint64_t key = r.U64();
    const uint64_t value = r.U64();
    auto [slot, inserted] = Upsert(key);
    if (inserted) {
      *slot = value;  // a duplicate key keeps its first value
    }
  }
  if (r.Done()) {
    return;  // legacy snapshot: no transaction tables
  }
  const uint64_t nprepared = r.U64();
  for (uint64_t i = 0; i < nprepared && r.ok(); ++i) {
    const uint64_t txn_id = r.U64();
    PreparedTxn p;
    p.ops.resize(r.U32());
    for (KvOp& op : p.ops) {
      if (!r.ok()) {
        break;
      }
      op.kind = static_cast<KvOpKind>(r.U8());
      op.key = r.U64();
      op.arg = r.U64();
    }
    p.participants.resize(r.ok() ? r.U32() : 0);
    for (uint32_t& part : p.participants) {
      part = r.U32();
    }
    p.client = r.U32();
    p.client_req = r.U64();
    if (r.ok()) {
      for (const KvOp& op : p.ops) {
        locks_[op.key] = txn_id;  // derived table: rebuilt, not snapshotted
      }
      prepared_.emplace(txn_id, std::move(p));
    }
  }
  const uint64_t ndecided = r.U64();
  for (uint64_t i = 0; i < ndecided && r.ok(); ++i) {
    const uint64_t txn_id = r.U64();
    DecidedTxn d;
    d.participants.resize(r.U32());
    for (uint32_t& part : d.participants) {
      part = r.U32();
    }
    d.client = r.U32();
    d.client_req = r.U64();
    d.results = r.Blob();
    if (r.ok()) {
      decided_.emplace(txn_id, std::move(d));
    }
  }
}

Digest KvStateMachine::StateDigest() const {
  return Sha256::Hash(SnapshotBytes());
}

void KvStateMachine::Reset() {
  slots_ = {};
  used_ = {};
  size_ = 0;
  shift_ = 64;
  prepared_.clear();
  decided_.clear();
  locks_.clear();
}

}  // namespace optilog
