#include "src/heap/heap.h"

#include "src/common/cacheline.h"
#include "src/common/checksum.h"

namespace kamino::heap {

Result<std::unique_ptr<Heap>> Heap::Create(const HeapOptions& options) {
  nvm::PoolOptions popts;
  popts.size = options.pool_size;
  popts.path = options.path;
  popts.crash_sim = options.crash_sim;
  popts.flush_latency_ns = options.flush_latency_ns;
  popts.drain_latency_ns = options.drain_latency_ns;
  popts.sleep_latency = options.sleep_latency;
  popts.site_prefix = options.site_prefix;
  Result<std::unique_ptr<nvm::Pool>> pool = nvm::Pool::Create(popts);
  if (!pool.ok()) {
    return pool.status();
  }
  auto heap = std::unique_ptr<Heap>(new Heap());
  heap->owned_pool_ = std::move(*pool);
  Status st = heap->Format(heap->owned_pool_.get(), options.log_region_size);
  if (!st.ok()) {
    return st;
  }
  return heap;
}

Result<std::unique_ptr<Heap>> Heap::CreateOn(nvm::Pool* pool, uint64_t log_region_size) {
  if (pool == nullptr) {
    return Status::InvalidArgument("null pool");
  }
  auto heap = std::unique_ptr<Heap>(new Heap());
  Status st = heap->Format(pool, log_region_size);
  if (!st.ok()) {
    return st;
  }
  return heap;
}

Result<std::unique_ptr<Heap>> Heap::Attach(nvm::Pool* pool) {
  if (pool == nullptr) {
    return Status::InvalidArgument("null pool");
  }
  auto heap = std::unique_ptr<Heap>(new Heap());
  Status st = heap->DoAttach(pool);
  if (!st.ok()) {
    return st;
  }
  return heap;
}

Status Heap::Format(nvm::Pool* pool, uint64_t log_region_size) {
  pool_ = pool;
  const uint64_t sb_end = AlignUp(sizeof(Superblock), 4096);
  log_region_offset_ = sb_end;
  log_region_size_ = AlignUp(log_region_size, 4096);

  const uint64_t alloc_offset = log_region_offset_ + log_region_size_;
  if (alloc_offset + alloc::kChunkSize + 8192 > pool->size()) {
    return Status::InvalidArgument("pool too small for log region + one chunk");
  }
  const uint64_t alloc_size = pool->size() - alloc_offset;

  Result<std::unique_ptr<alloc::Allocator>> a =
      alloc::Allocator::Create(pool, alloc_offset, alloc_size);
  if (!a.ok()) {
    return a.status();
  }
  allocator_ = std::move(*a);

  Superblock* s = sb();
  s->magic = kMagic;
  s->version = 1;
  s->pool_size = pool->size();
  s->log_region_offset = log_region_offset_;
  s->log_region_size = log_region_size_;
  s->alloc_region_offset = alloc_offset;
  s->alloc_region_size = alloc_size;
  s->root_offset = 0;
  s->checksum = Crc64(s, offsetof(Superblock, checksum));  // root_offset excluded.
  pool->Persist(s, sizeof(Superblock));
  return Status::Ok();
}

Status Heap::DoAttach(nvm::Pool* pool) {
  pool_ = pool;
  const Superblock* s = sb();
  if (s->magic != kMagic) {
    return Status::Corruption("heap superblock magic mismatch");
  }
  if (s->checksum != Crc64(s, offsetof(Superblock, checksum))) {
    return Status::Corruption("heap superblock checksum mismatch");
  }
  if (s->pool_size != pool->size()) {
    return Status::Corruption("heap formatted for a different pool size");
  }
  log_region_offset_ = s->log_region_offset;
  log_region_size_ = s->log_region_size;

  Result<std::unique_ptr<alloc::Allocator>> a =
      alloc::Allocator::Open(pool, s->alloc_region_offset);
  if (!a.ok()) {
    return a.status();
  }
  allocator_ = std::move(*a);
  return Status::Ok();
}

uint64_t Heap::root() const { return sb()->root_offset; }

void Heap::set_root(uint64_t offset) {
  Superblock* s = sb();
  s->root_offset = offset;
  pool_->PersistU64(&s->root_offset);
}

uint64_t Heap::root_field_offset() const { return offsetof(Superblock, root_offset); }

}  // namespace kamino::heap
