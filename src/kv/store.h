// The one client interface every KV front-end implements: the single-node
// kv::KvStore, the N-engine shard::ShardedStore and the replicated
// chain::Chain. One contract means one YCSB client loop (bench/bench_util.h), one
// shell loop (tools/kamino_kv_shell) and one conformance suite
// (tests/kv_store_test.cc) for all three deployments (DESIGN.md §15).
//
// Every op has the same meaning on every front-end:
//   - Read:            the latest committed value; kNotFound if absent.
//   - Update:          the key must exist (kNotFound otherwise, nothing written).
//   - Upsert:          insert-or-replace.
//   - Delete:          kNotFound if absent.
//   - ReadModifyWrite: atomic — no other write to the key lands between the
//                      read and the write; the key must exist.
//   - MultiUpdate:     atomic across all pairs, and every key must exist: one
//                      missing key fails the call with kNotFound and changes
//                      no key. KvStore and ShardedStore update in place, so
//                      there a value that outgrows its stored blob fails
//                      with kNotSupported (DESIGN.md §15).
//
// Front-end-specific surfaces (Scan, persist-behind UpdateAsync, snapshot
// reads) stay on the concrete classes. The concrete classes are `final`, so
// a call through a concrete pointer is direct, not virtual.

#ifndef SRC_KV_STORE_H_
#define SRC_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace kamino::kv {

class Store {
 public:
  virtual ~Store() = default;

  virtual Result<std::string> Read(uint64_t key) = 0;
  virtual Status Update(uint64_t key, std::string_view value) = 0;
  virtual Status Upsert(uint64_t key, std::string_view value) = 0;
  virtual Status Delete(uint64_t key) = 0;
  virtual Status ReadModifyWrite(uint64_t key,
                                 const std::function<void(std::string&)>& mutate) = 0;
  virtual Status MultiUpdate(const std::vector<std::pair<uint64_t, std::string>>& writes) = 0;
};

}  // namespace kamino::kv

#endif  // SRC_KV_STORE_H_
