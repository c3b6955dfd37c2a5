// kamino_kv_shell — an interactive shell over a file-backed, durable KV
// store. Data written here survives process restarts: re-run the shell on
// the same file and the store re-opens through the recovery path.
//
//   ./build/tools/kamino_kv_shell /tmp/demo.pool [engine] [--shards=N]
//
//   > put 1 hello         engine: kamino | dynamic | undo | cow | redo
//   > get 1
//   > del 1
//   > scan 0 10
//   > mput 1 a 2 b        (sharded mode: one atomic cross-shard commit)
//   > stats
//   > quit
//
// With --shards=N the shell runs a ShardedStore over N engine instances;
// shard i lives in <pool-file>.shard<i> (+ .backup), `get` reports the
// owning shard, `mput` updates several keys in one atomic (2PC when
// cross-shard) transaction, and `stats` prints one line per shard.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/kv/kv_store.h"
#include "src/nvm/pool.h"
#include "src/shard/sharded_store.h"

using namespace kamino;

namespace {

txn::EngineType ParseEngine(const char* name) {
  if (std::strcmp(name, "undo") == 0) {
    return txn::EngineType::kUndoLog;
  }
  if (std::strcmp(name, "cow") == 0) {
    return txn::EngineType::kCow;
  }
  if (std::strcmp(name, "redo") == 0) {
    return txn::EngineType::kRedoLog;
  }
  if (std::strcmp(name, "dynamic") == 0) {
    return txn::EngineType::kKaminoDynamic;
  }
  return txn::EngineType::kKaminoSimple;
}

int RunSharded(const char* path, int num_shards, txn::EngineType engine) {
  if (engine != txn::EngineType::kKaminoSimple &&
      engine != txn::EngineType::kKaminoDynamic) {
    std::fprintf(stderr, "--shards requires a kamino engine (kamino|dynamic)\n");
    return 2;
  }
  constexpr uint64_t kShardPoolSize = 128ull << 20;
  shard::ShardedStoreOptions sopts;
  sopts.num_shards = num_shards;
  sopts.engine = engine;

  // Shard i lives in <path>.shard<i> (+ .backup). The first shard's main
  // pool decides create-vs-open for the whole set.
  std::vector<std::unique_ptr<nvm::Pool>> keepers;
  bool existing = false;
  for (int i = 0; i < num_shards; ++i) {
    const std::string main_path = std::string(path) + ".shard" + std::to_string(i);
    const std::string backup_path = main_path + ".backup";
    nvm::PoolOptions main_opts, backup_opts;
    main_opts.path = main_path;
    backup_opts.path = backup_path;
    if (i == 0) {
      existing = nvm::Pool::OpenFile(main_opts).ok();
    }
    if (!existing) {
      main_opts.size = kShardPoolSize;
      backup_opts.size = kShardPoolSize;
    }
    Result<std::unique_ptr<nvm::Pool>> main_pool =
        existing ? nvm::Pool::OpenFile(main_opts) : nvm::Pool::Create(main_opts);
    Result<std::unique_ptr<nvm::Pool>> backup_pool =
        existing ? nvm::Pool::OpenFile(backup_opts) : nvm::Pool::Create(backup_opts);
    if (!main_pool.ok() || !backup_pool.ok()) {
      std::fprintf(stderr, "shard %d pools unavailable: %s\n", i,
                   (!main_pool.ok() ? main_pool.status() : backup_pool.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    sopts.external_pools.push_back({main_pool->get(), backup_pool->get()});
    keepers.push_back(std::move(*main_pool));
    keepers.push_back(std::move(*backup_pool));
  }

  Result<std::unique_ptr<shard::ShardedStore>> opened =
      existing ? shard::ShardedStore::Open(sopts) : shard::ShardedStore::Create(sopts);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", existing ? "open" : "create",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<shard::ShardedStore> store = std::move(*opened);
  std::printf("%s %s (%d shards, engine %s)\n", existing ? "reopened" : "created", path,
              num_shards, txn::EngineTypeName(engine));

  std::string line;
  std::printf("> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "quit" || cmd == "exit") {
      break;
    } else if (cmd == "put") {
      uint64_t key = 0;
      std::string value;
      in >> key;
      std::getline(in, value);
      if (!value.empty() && value.front() == ' ') {
        value.erase(0, 1);
      }
      std::printf("%s\n", store->Upsert(key, value).ToString().c_str());
    } else if (cmd == "get") {
      uint64_t key = 0;
      in >> key;
      Result<std::string> v = store->Read(key);
      if (v.ok()) {
        std::printf("%s  (shard %zu)\n", v->c_str(), store->ShardOf(key));
      } else {
        std::printf("%s\n", v.status().ToString().c_str());
      }
    } else if (cmd == "del") {
      uint64_t key = 0;
      in >> key;
      std::printf("%s\n", store->Delete(key).ToString().c_str());
    } else if (cmd == "scan") {
      uint64_t start = 0, n = 10;
      in >> start >> n;
      Result<std::vector<std::pair<uint64_t, std::string>>> rows =
          store->Scan(start, static_cast<size_t>(n));
      if (!rows.ok()) {
        std::printf("%s\n", rows.status().ToString().c_str());
      } else {
        for (const auto& [k, v] : *rows) {
          std::printf("  %" PRIu64 " -> %s  (shard %zu)\n", k, v.c_str(), store->ShardOf(k));
        }
        std::printf("(%zu rows)\n", rows->size());
      }
    } else if (cmd == "mput") {
      std::vector<std::pair<uint64_t, std::string>> writes;
      uint64_t key = 0;
      std::string value;
      while (in >> key >> value) {
        writes.emplace_back(key, value);
      }
      if (writes.empty()) {
        std::printf("usage: mput <k> <v> [<k> <v> ...]  — keys must already exist\n");
      } else {
        std::printf("%s\n", store->MultiUpdate(writes).ToString().c_str());
      }
    } else if (cmd == "stats") {
      store->WaitIdle();
      for (int s = 0; s < store->num_shards(); ++s) {
        const txn::EngineStats es = store->ShardStats(s);
        std::printf("shard %d: committed=%" PRIu64 " aborted=%" PRIu64 " applied=%" PRIu64
                    " keys=%" PRIu64 " queue=%" PRIu64 " helper-batches=%" PRIu64 "\n",
                    s, es.committed, es.aborted, es.applied,
                    store->shard_store(static_cast<size_t>(s))->tree()->CountSlow(),
                    es.applier_queue_depth, es.helper_apply_batches);
      }
      const auto cs = store->cross_shard_stats();
      std::printf("cross-shard: commits=%" PRIu64 " aborts=%" PRIu64
                  " single-shard multi-updates=%" PRIu64 "\n",
                  cs.cross_shard_commits, cs.cross_shard_aborts,
                  cs.single_shard_multi_updates);
    } else if (!cmd.empty()) {
      std::printf("commands: put <k> <v> | get <k> | del <k> | scan <start> <n> | "
                  "mput <k> <v> [...] | stats | quit\n");
    }
    std::printf("> ");
    std::fflush(stdout);
  }
  store->WaitIdle();
  std::printf("bye\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  const char* engine_name = nullptr;
  int shards = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atoi(argv[i] + 9);
      if (shards < 1) {
        std::fprintf(stderr, "--shards=N requires N >= 1\n");
        return 2;
      }
    } else if (path == nullptr) {
      path = argv[i];
    } else if (engine_name == nullptr) {
      engine_name = argv[i];
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: %s <pool-file> [kamino|dynamic|undo|cow|redo] [--shards=N]\n",
                 argv[0]);
    return 2;
  }
  txn::EngineType engine =
      engine_name != nullptr ? ParseEngine(engine_name) : txn::EngineType::kKaminoSimple;
  if (shards > 0) {
    return RunSharded(path, shards, engine);
  }

  // Open the pool if it exists, create it otherwise.
  std::unique_ptr<nvm::Pool> pool;
  std::unique_ptr<heap::Heap> heap;
  std::unique_ptr<txn::TxManager> mgr;
  std::unique_ptr<kv::KvStore> store;

  nvm::PoolOptions popts;
  popts.path = path;
  Result<std::unique_ptr<nvm::Pool>> existing = nvm::Pool::OpenFile(popts);
  txn::TxManagerOptions mopts;
  mopts.engine = engine;
  mopts.backup_path = std::string(path) + ".backup";

  if (existing.ok()) {
    pool = std::move(*existing);
    heap = std::move(heap::Heap::Attach(pool.get()).value());
    if (engine == txn::EngineType::kKaminoSimple ||
        engine == txn::EngineType::kKaminoDynamic) {
      nvm::PoolOptions bopts;
      bopts.path = mopts.backup_path;
      Result<std::unique_ptr<nvm::Pool>> backup = nvm::Pool::OpenFile(bopts);
      if (!backup.ok()) {
        std::fprintf(stderr, "backup pool missing: %s\n",
                     backup.status().ToString().c_str());
        return 1;
      }
      mopts.external_backup_pool = backup->get();
      // Keep the backup alive for the session.
      static std::unique_ptr<nvm::Pool> backup_keeper;
      backup_keeper = std::move(*backup);
      mopts.external_backup_pool = backup_keeper.get();
    }
    Result<std::unique_ptr<txn::TxManager>> m = txn::TxManager::Open(heap.get(), mopts);
    if (!m.ok()) {
      std::fprintf(stderr, "open failed: %s\n", m.status().ToString().c_str());
      return 1;
    }
    mgr = std::move(*m);
    const txn::EngineStats es = mgr->engine()->stats();
    std::printf("reopened %s (recovery: %" PRIu64 " forward, %" PRIu64 " back)\n", path,
                es.recovered_forward, es.recovered_back);
    store = std::move(kv::KvStore::Open(mgr.get()).value());
  } else {
    popts.size = 256ull << 20;
    pool = std::move(nvm::Pool::Create(popts).value());
    heap = std::move(heap::Heap::CreateOn(pool.get(), 16ull << 20).value());
    Result<std::unique_ptr<txn::TxManager>> m = txn::TxManager::Create(heap.get(), mopts);
    if (!m.ok()) {
      std::fprintf(stderr, "create failed: %s\n", m.status().ToString().c_str());
      return 1;
    }
    mgr = std::move(*m);
    store = std::move(kv::KvStore::Create(mgr.get()).value());
    std::printf("created %s (256 MiB, engine %s)\n", path, txn::EngineTypeName(engine));
  }

  std::string line;
  std::printf("> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "quit" || cmd == "exit") {
      break;
    } else if (cmd == "put") {
      uint64_t key = 0;
      std::string value;
      in >> key;
      std::getline(in, value);
      if (!value.empty() && value.front() == ' ') {
        value.erase(0, 1);
      }
      std::printf("%s\n", store->Upsert(key, value).ToString().c_str());
    } else if (cmd == "get") {
      uint64_t key = 0;
      in >> key;
      Result<std::string> v = store->Read(key);
      std::printf("%s\n", v.ok() ? v->c_str() : v.status().ToString().c_str());
    } else if (cmd == "del") {
      uint64_t key = 0;
      in >> key;
      std::printf("%s\n", store->Delete(key).ToString().c_str());
    } else if (cmd == "scan") {
      uint64_t start = 0, n = 10;
      in >> start >> n;
      Result<std::vector<std::pair<uint64_t, std::string>>> rows =
          store->Scan(start, static_cast<size_t>(n));
      if (!rows.ok()) {
        std::printf("%s\n", rows.status().ToString().c_str());
      } else {
        for (const auto& [k, v] : *rows) {
          std::printf("  %" PRIu64 " -> %s\n", k, v.c_str());
        }
        std::printf("(%zu rows)\n", rows->size());
      }
    } else if (cmd == "stats") {
      mgr->WaitIdle();
      const txn::EngineStats es = mgr->engine()->stats();
      const auto fp = mgr->footprint();
      std::printf("engine=%s committed=%" PRIu64 " aborted=%" PRIu64 " applied=%" PRIu64
                  " keys=%" PRIu64 " main=%" PRIu64 "MiB backup=%" PRIu64 "MiB\n",
                  txn::EngineTypeName(engine), es.committed, es.aborted, es.applied,
                  store->tree()->CountSlow(), fp.main_bytes >> 20, fp.backup_bytes >> 20);
    } else if (!cmd.empty()) {
      std::printf("commands: put <k> <v> | get <k> | del <k> | scan <start> <n> | "
                  "stats | quit\n");
    }
    std::printf("> ");
    std::fflush(stdout);
  }
  mgr->WaitIdle();
  std::printf("bye\n");
  return 0;
}
