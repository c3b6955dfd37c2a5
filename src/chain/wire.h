// Wire format for chain-replication messages.
//
// Replicas exchange operations "in the form of a remote procedure call with
// a named function and the arguments to the function" (paper §5.1); here the
// named functions are the KV store's transactional operations. A small
// explicit binary codec keeps marshaling cost on the measured path, as it
// would be on a real wire.

#ifndef SRC_CHAIN_WIRE_H_
#define SRC_CHAIN_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace kamino::chain {

// Message opcodes (net::Message::type).
enum MsgType : uint64_t {
  kOpForward = 1,    // Downstream: op_id + operation.
  kOpAck = 2,        // Tail -> head: op_id committed chain-wide.
  kCleanupAck = 3,   // Upstream: op_id may leave in-flight queues.
  kReadReq = 4,      // Head -> tail: req_id + key.
  kReadReply = 5,    // Tail -> head: req_id + found + value.
  kFetchObjects = 6, // Reboot recovery: intent list (offsets/sizes/kinds).
  kFetchReply = 7,   // Neighbour's bytes for those ranges.
  kReplayReq = 8,    // Rebooted replica asks predecessor for ops > from_id.
  kQueryTail = 9,    // New head asks tail for its progress.
  kTailInfo = 10,    // Tail's last applied op id.
  kStateReq = 11,    // New tail asks predecessor for a full state transfer.
  kStateChunk = 12,  // Bulk heap bytes.
  kHeartbeat = 13,   // Liveness beacon to chain neighbours (payload: applied watermark).
};

// Every kind applies all of `pairs` in one atomic transaction.
enum class OpKind : uint32_t {
  kUpsert = 1,  // Insert-or-replace.
  kDelete = 2,  // pairs[0].key only.
  kUpdate = 3,  // Every key must exist (the head rejects the op otherwise).
};

struct KvPair {
  uint64_t key = 0;
  std::string value;
};

struct Op {
  OpKind kind = OpKind::kUpsert;
  // Client-assigned request id (0 = none). Travels with the op to every
  // replica so any head — including one promoted mid-request — can detect a
  // retried request and return the original outcome instead of executing it
  // a second time (exactly-once client retries).
  uint64_t req_id = 0;
  std::vector<KvPair> pairs;
};

// --- Codec ---------------------------------------------------------------

class Writer {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void Bytes(const void* p, size_t n) {
    U32(static_cast<uint32_t>(n));
    Raw(p, n);
  }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }

  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void Raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  // Owns a copy of the buffer so temporaries (e.g. Reader(w.Take())) are
  // safe; message payloads are small enough that the copy is irrelevant.
  explicit Reader(std::vector<uint8_t> buf) : buf_(std::move(buf)) {}

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s) {
    uint32_t n = 0;
    if (!U32(&n) || pos_ + n > buf_.size()) {
      return false;
    }
    s->assign(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return true;
  }
  bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  bool Raw(void* p, size_t n) {
    if (pos_ + n > buf_.size()) {
      return false;
    }
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
};

// --- Op serialization -----------------------------------------------------

inline void EncodeOp(const Op& op, Writer* w) {
  w->U32(static_cast<uint32_t>(op.kind));
  w->U64(op.req_id);
  w->U32(static_cast<uint32_t>(op.pairs.size()));
  for (const KvPair& p : op.pairs) {
    w->U64(p.key);
    w->Str(p.value);
  }
}

inline bool DecodeOp(Reader* r, Op* op) {
  uint32_t kind = 0, n = 0;
  if (!r->U32(&kind) || !r->U64(&op->req_id) || !r->U32(&n)) {
    return false;
  }
  if (kind < static_cast<uint32_t>(OpKind::kUpsert) ||
      kind > static_cast<uint32_t>(OpKind::kUpdate)) {
    return false;
  }
  op->kind = static_cast<OpKind>(kind);
  op->pairs.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!r->U64(&op->pairs[i].key) || !r->Str(&op->pairs[i].value)) {
      return false;
    }
  }
  return true;
}

}  // namespace kamino::chain

#endif  // SRC_CHAIN_WIRE_H_
