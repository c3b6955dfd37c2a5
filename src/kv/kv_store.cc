#include "src/kv/kv_store.h"

#include <algorithm>

namespace kamino::kv {

Result<std::unique_ptr<KvStore>> KvStore::Create(txn::TxManager* mgr) {
  if (mgr == nullptr) {
    return Status::InvalidArgument("null manager");
  }
  Result<std::unique_ptr<pds::BPlusTree>> tree = pds::BPlusTree::Create(mgr);
  if (!tree.ok()) {
    return tree.status();
  }
  mgr->heap()->set_root((*tree)->anchor());
  return std::unique_ptr<KvStore>(new KvStore(mgr, std::move(*tree)));
}

Result<std::unique_ptr<KvStore>> KvStore::Open(txn::TxManager* mgr) {
  if (mgr == nullptr) {
    return Status::InvalidArgument("null manager");
  }
  const uint64_t anchor = mgr->heap()->root();
  if (anchor == 0) {
    return Status::NotFound("heap root holds no store anchor");
  }
  return Attach(mgr, anchor);
}

Result<std::unique_ptr<KvStore>> KvStore::CreateDetached(txn::TxManager* mgr) {
  if (mgr == nullptr) {
    return Status::InvalidArgument("null manager");
  }
  Result<std::unique_ptr<pds::BPlusTree>> tree = pds::BPlusTree::Create(mgr);
  if (!tree.ok()) {
    return tree.status();
  }
  return std::unique_ptr<KvStore>(new KvStore(mgr, std::move(*tree)));
}

Result<std::unique_ptr<KvStore>> KvStore::Attach(txn::TxManager* mgr, uint64_t anchor) {
  if (mgr == nullptr) {
    return Status::InvalidArgument("null manager");
  }
  Result<std::unique_ptr<pds::BPlusTree>> tree = pds::BPlusTree::Attach(mgr, anchor);
  if (!tree.ok()) {
    return tree.status();
  }
  return std::unique_ptr<KvStore>(new KvStore(mgr, std::move(*tree)));
}

Result<std::string> KvStore::Read(uint64_t key) { return tree_->Get(key); }

Status KvStore::Update(uint64_t key, std::string_view value) {
  return tree_->Update(key, value);
}

Status KvStore::UpdateAsync(uint64_t key, std::string_view value, txn::CommitAck* ack) {
  return tree_->Update(key, value, ack);
}

Status KvStore::Insert(uint64_t key, std::string_view value) {
  return tree_->Insert(key, value);
}

Status KvStore::Upsert(uint64_t key, std::string_view value) {
  return tree_->Upsert(key, value);
}

Status KvStore::ReadModifyWrite(uint64_t key,
                                const std::function<void(std::string&)>& mutate) {
  return tree_->ReadModifyWrite(key, mutate);
}

Status KvStore::MultiUpdate(const std::vector<std::pair<uint64_t, std::string>>& writes) {
  if (writes.empty()) {
    return Status::Ok();
  }
  auto guard = tree_->LockShared();
  return mgr_->RunWithRetries([&](txn::Tx& tx) -> Status {
    for (const auto& [key, value] : writes) {
      KAMINO_RETURN_IF_ERROR(tree_->UpdateInTx(tx, key, value));
    }
    return Status::Ok();
  });
}

Result<std::vector<std::pair<uint64_t, std::string>>> KvStore::Scan(uint64_t start,
                                                                    size_t limit) {
  return tree_->Scan(start, limit);
}

Status KvStore::Delete(uint64_t key) { return tree_->Delete(key); }

// --- Backup-snapshot reads (DESIGN.md §12) -----------------------------------

Result<std::string> KvStore::SnapshotRead(uint64_t key, uint64_t* epoch_out) {
  txn::BackupStore* store = mgr_->backup_store();
  if (store == nullptr) {
    return Status::NotSupported("engine has no backup store");
  }
  // Online reconcile repairs the backup outside the cut gate; a snapshot is
  // only meaningful once the copy is whole again.
  mgr_->WaitForRecovery();
  Result<txn::BackupStore::SnapshotView> view = store->OpenSnapshot();
  if (!view.ok()) {
    return view.status();
  }
  if (epoch_out != nullptr) {
    *epoch_out = view->epoch();
  }
  return tree_->SnapshotGet(*view, key);
}

Result<std::vector<std::pair<uint64_t, std::string>>> KvStore::SnapshotScan(
    uint64_t start, size_t limit, uint64_t* epoch_out) {
  txn::BackupStore* store = mgr_->backup_store();
  if (store == nullptr) {
    return Status::NotSupported("engine has no backup store");
  }
  mgr_->WaitForRecovery();
  Result<txn::BackupStore::SnapshotView> view = store->OpenSnapshot();
  if (!view.ok()) {
    return view.status();
  }
  if (epoch_out != nullptr) {
    *epoch_out = view->epoch();
  }
  return tree_->SnapshotScan(*view, start, limit);
}

Result<std::vector<std::pair<uint64_t, std::string>>> KvStore::SnapshotScanChunked(
    uint64_t start, size_t limit, size_t chunk_limit, uint64_t* epoch_out) {
  txn::BackupStore* store = mgr_->backup_store();
  if (store == nullptr) {
    return Status::NotSupported("engine has no backup store");
  }
  if (chunk_limit == 0) {
    return Status::InvalidArgument("chunk_limit must be positive");
  }
  mgr_->WaitForRecovery();
  std::vector<std::pair<uint64_t, std::string>> out;
  uint64_t resume = start;
  while (out.size() < limit) {
    const size_t want = std::min(chunk_limit, limit - out.size());
    Result<txn::BackupStore::SnapshotView> view = store->OpenSnapshot();
    if (!view.ok()) {
      return view.status();
    }
    if (epoch_out != nullptr) {
      *epoch_out = view->epoch();
    }
    Result<std::vector<std::pair<uint64_t, std::string>>> chunk =
        tree_->SnapshotScan(*view, resume, want);
    if (!chunk.ok()) {
      return chunk.status();
    }
    const size_t got = chunk->size();
    for (auto& kv : *chunk) {
      out.push_back(std::move(kv));
    }
    if (got < want) {
      break;  // Past the end of the keyspace.
    }
    const uint64_t last = out.back().first;
    if (last == UINT64_MAX) {
      break;
    }
    resume = last + 1;  // Re-descend by key under the next view.
  }
  return out;
}

}  // namespace kamino::kv
