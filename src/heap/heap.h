// Persistent object heap (the paper's "persistent heap manager", Figure 3).
//
// A Heap formats a pool as:
//
//   [ HeapSuperblock | log region (intent logs) | allocator region (objects) ]
//
// Objects are reached through `PPtr<T>` persistent pointers — 64-bit pool
// offsets that remain valid across crashes and re-opens (raw pointers do
// not). A designated *root* offset in the superblock anchors the object
// graph, exactly as in NVML's pmemobj root object.
//
// The Heap itself performs no atomicity: transactional modification is the
// job of `txn::TxManager`, which layers one of the five atomicity engines on
// top (Kamino-Tx-Simple / -Dynamic, undo-logging, copy-on-write, no-logging).

#ifndef SRC_HEAP_HEAP_H_
#define SRC_HEAP_HEAP_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/alloc/allocator.h"
#include "src/common/status.h"
#include "src/nvm/pool.h"

namespace kamino::heap {

class Heap;

// Persistent pointer: a pool offset. 0 is the null value (offset 0 is always
// the superblock, never an object).
template <typename T>
struct PPtr {
  uint64_t offset = 0;

  PPtr() = default;
  explicit PPtr(uint64_t off) : offset(off) {}

  bool IsNull() const { return offset == 0; }
  explicit operator bool() const { return !IsNull(); }

  static PPtr Null() { return PPtr(); }

  bool operator==(const PPtr& other) const { return offset == other.offset; }
  bool operator!=(const PPtr& other) const { return offset != other.offset; }

  // Dereference against a heap (defined after Heap below).
  T* get(Heap& heap) const;
  const T* get(const Heap& heap) const;
};

struct HeapOptions {
  // Total pool size (superblock + log region + object space).
  uint64_t pool_size = 256ull << 20;

  // Backing file; empty = anonymous memory.
  std::string path;

  // Forwarded to nvm::PoolOptions.
  bool crash_sim = false;
  uint32_t flush_latency_ns = 0;
  uint32_t drain_latency_ns = 0;
  bool sleep_latency = false;
  std::string site_prefix;

  // Intent-log region size (shared by all engines' log managers).
  uint64_t log_region_size = 16ull << 20;
};

class Heap {
 public:
  // Creates a pool per `options` and formats it. The heap owns the pool.
  static Result<std::unique_ptr<Heap>> Create(const HeapOptions& options);

  // Formats a caller-owned pool as a fresh heap.
  static Result<std::unique_ptr<Heap>> CreateOn(nvm::Pool* pool, uint64_t log_region_size);

  // Attaches to an already-formatted caller-owned pool — the restart /
  // post-crash path. Rebuilds the allocator's volatile indexes; the caller
  // must then run txn::TxManager::Recover() before using the heap.
  static Result<std::unique_ptr<Heap>> Attach(nvm::Pool* pool);

  nvm::Pool* pool() { return pool_; }
  const nvm::Pool* pool() const { return pool_; }
  alloc::Allocator* allocator() { return allocator_.get(); }

  uint64_t log_region_offset() const { return log_region_offset_; }
  uint64_t log_region_size() const { return log_region_size_; }

  // Root object anchor. `set_root` is failure-atomic (8-byte store+persist);
  // transactional code should instead update the root *inside* a transaction
  // via Tx::OpenWrite(root_field_offset(), 8).
  uint64_t root() const;
  void set_root(uint64_t offset);
  uint64_t root_field_offset() const;

  template <typename T>
  T* Deref(PPtr<T> p) {
    return p.IsNull() ? nullptr : static_cast<T*>(pool_->At(p.offset));
  }
  template <typename T>
  const T* Deref(PPtr<T> p) const {
    return p.IsNull() ? nullptr : static_cast<const T*>(pool_->At(p.offset));
  }

  // Offset of a live pointer inside the pool.
  uint64_t OffsetOf(const void* p) const { return pool_->OffsetOf(p); }

  // Size of the object (allocation) starting at `offset`; 0 if none.
  uint64_t ObjectSize(uint64_t offset) const { return allocator_->UsableSize(offset); }

 private:
  struct Superblock {
    uint64_t magic;
    uint64_t version;
    uint64_t pool_size;
    uint64_t log_region_offset;
    uint64_t log_region_size;
    uint64_t alloc_region_offset;
    uint64_t alloc_region_size;
    uint64_t checksum;    // Over all preceding (immutable) fields.
    uint64_t root_offset; // Mutable; updated via failure-atomic 8-byte store.
  };
  static constexpr uint64_t kMagic = 0x4B414D494E4F4850ull;  // "KAMINOHP"

  Heap() = default;

  Status Format(nvm::Pool* pool, uint64_t log_region_size);
  Status DoAttach(nvm::Pool* pool);

  Superblock* sb() { return static_cast<Superblock*>(pool_->At(0)); }
  const Superblock* sb() const { return static_cast<const Superblock*>(pool_->At(0)); }

  std::unique_ptr<nvm::Pool> owned_pool_;
  nvm::Pool* pool_ = nullptr;
  std::unique_ptr<alloc::Allocator> allocator_;
  uint64_t log_region_offset_ = 0;
  uint64_t log_region_size_ = 0;
};

template <typename T>
T* PPtr<T>::get(Heap& heap) const {
  return heap.Deref(*this);
}
template <typename T>
const T* PPtr<T>::get(const Heap& heap) const {
  return heap.Deref(*this);
}

}  // namespace kamino::heap

#endif  // SRC_HEAP_HEAP_H_
