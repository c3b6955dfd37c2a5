#include "src/pds/bplus_tree.h"

#include <algorithm>
#include <cstring>

namespace kamino::pds {

namespace {
// Sentinel used internally: an in-place update could not fit and the caller
// must retry on the exclusive (structural) path.
Status NeedsRealloc() { return Status::NotSupported("blob realloc required"); }
}  // namespace

// --- Construction -------------------------------------------------------------

Result<std::unique_ptr<BPlusTree>> BPlusTree::Create(txn::TxManager* mgr) {
  if (mgr == nullptr) {
    return Status::InvalidArgument("null manager");
  }
  uint64_t header_off = 0;
  Status st = mgr->Run([&](txn::Tx& tx) -> Status {
    Result<uint64_t> hoff = tx.Alloc(sizeof(Header));
    if (!hoff.ok()) {
      return hoff.status();
    }
    Result<uint64_t> roff = tx.Alloc(sizeof(Node));
    if (!roff.ok()) {
      return roff.status();
    }
    Result<void*> rw = tx.OpenWrite(*roff, sizeof(Node));
    if (!rw.ok()) {
      return rw.status();
    }
    auto* root = static_cast<Node*>(*rw);
    root->is_leaf = 1;
    root->num_keys = 0;
    root->next = 0;

    Result<void*> hw = tx.OpenWrite(*hoff, sizeof(Header));
    if (!hw.ok()) {
      return hw.status();
    }
    auto* hdr = static_cast<Header*>(*hw);
    hdr->root = *roff;
    hdr->height = 1;
    header_off = *hoff;
    return Status::Ok();
  });
  if (!st.ok()) {
    return st;
  }
  mgr->WaitIdle();
  return std::unique_ptr<BPlusTree>(new BPlusTree(mgr, header_off));
}

Result<std::unique_ptr<BPlusTree>> BPlusTree::Attach(txn::TxManager* mgr,
                                                     uint64_t header_offset) {
  if (mgr == nullptr) {
    return Status::InvalidArgument("null manager");
  }
  if (mgr->heap()->ObjectSize(header_offset) < sizeof(Header)) {
    return Status::InvalidArgument("header offset is not a live tree header");
  }
  return std::unique_ptr<BPlusTree>(new BPlusTree(mgr, header_offset));
}

// --- Small helpers -------------------------------------------------------------

uint32_t BPlusTree::LowerBound(const Node* node, uint64_t key) {
  const uint64_t* begin = node->keys;
  const uint64_t* end = node->keys + node->num_keys;
  return static_cast<uint32_t>(std::lower_bound(begin, end, key) - begin);
}

uint32_t BPlusTree::ChildIndex(const Node* node, uint64_t key) {
  // Child i covers [k_{i-1}, k_i): keys equal to a separator descend right,
  // matching leaf splits where the separator is the right sibling's first
  // key.
  const uint64_t* begin = node->keys;
  const uint64_t* end = node->keys + node->num_keys;
  return static_cast<uint32_t>(std::upper_bound(begin, end, key) - begin);
}

Result<uint64_t> BPlusTree::WriteBlob(txn::Tx& tx, std::string_view value) {
  const uint64_t bytes = sizeof(uint32_t) + value.size();
  Result<uint64_t> off = tx.Alloc(bytes, /*zero=*/false);
  if (!off.ok()) {
    return off.status();
  }
  Result<void*> w = tx.OpenWrite(*off, bytes);
  if (!w.ok()) {
    return w.status();
  }
  auto* blob = static_cast<Blob*>(*w);
  blob->size = static_cast<uint32_t>(value.size());
  std::memcpy(blob->data, value.data(), value.size());
  return *off;
}

Result<std::string> BPlusTree::ReadBlobLocked(txn::Tx& tx, uint64_t blob_off) {
  // Dependent read: wait for any pending writer of this blob.
  KAMINO_RETURN_IF_ERROR(tx.ReadLock(blob_off));
  const void* p = tx.OpenedPointer(blob_off);
  if (p == nullptr) {
    p = heap_->pool()->At(blob_off);
  }
  const auto* blob = static_cast<const Blob*>(p);
  return std::string(reinterpret_cast<const char*>(blob->data), blob->size);
}

// --- Insert -------------------------------------------------------------------

Result<uint64_t> BPlusTree::SplitChild(txn::Tx& tx, Node* parent, uint32_t child_idx) {
  const uint64_t child_off = parent->slots[child_idx];
  Result<void*> cw = tx.OpenWrite(child_off, sizeof(Node));
  if (!cw.ok()) {
    return cw.status();
  }
  auto* child = static_cast<Node*>(*cw);

  Result<uint64_t> right_off = tx.Alloc(sizeof(Node), /*zero=*/false);
  if (!right_off.ok()) {
    return right_off.status();
  }
  Result<void*> rw = tx.OpenWrite(*right_off, sizeof(Node));
  if (!rw.ok()) {
    return rw.status();
  }
  auto* right = static_cast<Node*>(*rw);

  uint64_t separator;
  if (child->is_leaf) {
    // Leaf split: left keeps the lower half, right gets the upper half; the
    // separator is copied up (it stays in the right leaf).
    const uint32_t keep = kMaxKeys / 2;
    const uint32_t move = kMaxKeys - keep;
    right->is_leaf = 1;
    right->num_keys = move;
    std::memcpy(right->keys, child->keys + keep, move * sizeof(uint64_t));
    std::memcpy(right->slots, child->slots + keep, move * sizeof(uint64_t));
    right->next = child->next;
    child->next = *right_off;
    child->num_keys = keep;
    separator = right->keys[0];
  } else {
    // Inner split: the middle key moves up.
    const uint32_t mid = kMaxKeys / 2;
    const uint32_t move = kMaxKeys - mid - 1;
    right->is_leaf = 0;
    right->next = 0;
    right->num_keys = move;
    std::memcpy(right->keys, child->keys + mid + 1, move * sizeof(uint64_t));
    std::memcpy(right->slots, child->slots + mid + 1, (move + 1) * sizeof(uint64_t));
    separator = child->keys[mid];
    child->num_keys = mid;
  }

  // Make room in the parent at child_idx.
  for (uint32_t i = parent->num_keys; i > child_idx; --i) {
    parent->keys[i] = parent->keys[i - 1];
    parent->slots[i + 1] = parent->slots[i];
  }
  parent->keys[child_idx] = separator;
  parent->slots[child_idx + 1] = *right_off;
  ++parent->num_keys;
  return *right_off;
}

Status BPlusTree::DoInsert(txn::Tx& tx, uint64_t key, std::string_view value,
                           bool allow_update, bool require_existing) {
  const Header* hdr = HeaderView(tx);
  uint64_t cur_off = hdr->root;

  // Preemptive root split keeps the descent single-pass.
  if (NodeView(tx, cur_off)->num_keys == kMaxKeys) {
    Result<uint64_t> new_root_off = tx.Alloc(sizeof(Node), /*zero=*/false);
    if (!new_root_off.ok()) {
      return new_root_off.status();
    }
    Result<void*> nrw = tx.OpenWrite(*new_root_off, sizeof(Node));
    if (!nrw.ok()) {
      return nrw.status();
    }
    auto* new_root = static_cast<Node*>(*nrw);
    new_root->is_leaf = 0;
    new_root->num_keys = 0;
    new_root->next = 0;
    new_root->slots[0] = cur_off;
    Result<uint64_t> right = SplitChild(tx, new_root, 0);
    if (!right.ok()) {
      return right.status();
    }
    Result<void*> hw = tx.OpenWrite(header_off_, sizeof(Header));
    if (!hw.ok()) {
      return hw.status();
    }
    auto* hdr_w = static_cast<Header*>(*hw);
    hdr_w->root = *new_root_off;
    ++hdr_w->height;
    cur_off = *new_root_off;
  }

  for (;;) {
    // Nodes touched by this transaction (fresh splits) must be re-read
    // through their write pointers; untouched nodes read in place.
    const Node* cur = NodeView(tx, cur_off);
    if (cur->is_leaf) {
      const uint32_t pos = LowerBound(cur, key);
      const bool exists = pos < cur->num_keys && cur->keys[pos] == key;
      if (exists && !allow_update) {
        return Status::AlreadyExists("key present");
      }
      if (!exists && require_existing) {
        return Status::NotFound("key absent");
      }
      Result<void*> lw = tx.OpenWrite(cur_off, sizeof(Node));
      if (!lw.ok()) {
        return lw.status();
      }
      auto* leaf = static_cast<Node*>(*lw);
      if (exists) {
        // Replace the blob (exclusive path: slot rewrite is safe).
        Result<uint64_t> blob = WriteBlob(tx, value);
        if (!blob.ok()) {
          return blob.status();
        }
        KAMINO_RETURN_IF_ERROR(tx.Free(leaf->slots[pos]));
        leaf->slots[pos] = *blob;
        return Status::Ok();
      }
      Result<uint64_t> blob = WriteBlob(tx, value);
      if (!blob.ok()) {
        return blob.status();
      }
      for (uint32_t i = leaf->num_keys; i > pos; --i) {
        leaf->keys[i] = leaf->keys[i - 1];
        leaf->slots[i] = leaf->slots[i - 1];
      }
      leaf->keys[pos] = key;
      leaf->slots[pos] = *blob;
      ++leaf->num_keys;
      return Status::Ok();
    }

    uint32_t ci = ChildIndex(cur, key);
    uint64_t child_off = cur->slots[ci];
    const Node* child = NodeView(tx, child_off);
    if (child->num_keys == kMaxKeys) {
      Result<void*> cw = tx.OpenWrite(cur_off, sizeof(Node));
      if (!cw.ok()) {
        return cw.status();
      }
      auto* cur_w = static_cast<Node*>(*cw);
      Result<uint64_t> right = SplitChild(tx, cur_w, ci);
      if (!right.ok()) {
        return right.status();
      }
      ci = ChildIndex(cur_w, key);
      child_off = cur_w->slots[ci];
    }
    cur_off = child_off;
  }
}

// --- Delete -------------------------------------------------------------------

Result<uint64_t> BPlusTree::FixChildForDelete(txn::Tx& tx, Node* parent, uint32_t child_idx,
                                              uint64_t key) {
  const uint64_t child_off = parent->slots[child_idx];

  const Node* left_view = nullptr;
  const Node* right_view = nullptr;
  uint64_t left_off = 0, right_off = 0;
  if (child_idx > 0) {
    left_off = parent->slots[child_idx - 1];
    left_view = NodeView(tx, left_off);
  }
  if (child_idx < parent->num_keys) {
    right_off = parent->slots[child_idx + 1];
    right_view = NodeView(tx, right_off);
  }

  // Every rebalance touches the child plus exactly one sibling; open the pair
  // as one batch so both intent records share a single drain.
  auto open_pair = [&tx](uint64_t first, uint64_t second, Node** a, Node** b) -> Status {
    txn::WriteSpan spans[2];
    spans[0].offset = first;
    spans[0].size = sizeof(Node);
    spans[1].offset = second;
    spans[1].size = sizeof(Node);
    void* ptrs[2] = {nullptr, nullptr};
    Status st = tx.OpenWriteBatch(spans, 2, ptrs);
    if (!st.ok()) {
      return st;
    }
    *a = static_cast<Node*>(ptrs[0]);
    *b = static_cast<Node*>(ptrs[1]);
    return Status::Ok();
  };

  // Borrow from the left sibling.
  if (left_view != nullptr && left_view->num_keys > kMinKeys) {
    Node* child;
    Node* left;
    KAMINO_RETURN_IF_ERROR(open_pair(child_off, left_off, &child, &left));
    if (child->is_leaf) {
      for (uint32_t i = child->num_keys; i > 0; --i) {
        child->keys[i] = child->keys[i - 1];
        child->slots[i] = child->slots[i - 1];
      }
      child->keys[0] = left->keys[left->num_keys - 1];
      child->slots[0] = left->slots[left->num_keys - 1];
      ++child->num_keys;
      --left->num_keys;
      parent->keys[child_idx - 1] = child->keys[0];
    } else {
      for (uint32_t i = child->num_keys; i > 0; --i) {
        child->keys[i] = child->keys[i - 1];
      }
      for (uint32_t i = child->num_keys + 1; i > 0; --i) {
        child->slots[i] = child->slots[i - 1];
      }
      child->keys[0] = parent->keys[child_idx - 1];
      child->slots[0] = left->slots[left->num_keys];
      parent->keys[child_idx - 1] = left->keys[left->num_keys - 1];
      ++child->num_keys;
      --left->num_keys;
    }
    return child_off;
  }

  // Borrow from the right sibling.
  if (right_view != nullptr && right_view->num_keys > kMinKeys) {
    Node* child;
    Node* right;
    KAMINO_RETURN_IF_ERROR(open_pair(child_off, right_off, &child, &right));
    if (child->is_leaf) {
      child->keys[child->num_keys] = right->keys[0];
      child->slots[child->num_keys] = right->slots[0];
      ++child->num_keys;
      for (uint32_t i = 0; i + 1 < right->num_keys; ++i) {
        right->keys[i] = right->keys[i + 1];
        right->slots[i] = right->slots[i + 1];
      }
      --right->num_keys;
      parent->keys[child_idx] = right->keys[0];
    } else {
      child->keys[child->num_keys] = parent->keys[child_idx];
      child->slots[child->num_keys + 1] = right->slots[0];
      ++child->num_keys;
      parent->keys[child_idx] = right->keys[0];
      for (uint32_t i = 0; i + 1 < right->num_keys; ++i) {
        right->keys[i] = right->keys[i + 1];
      }
      for (uint32_t i = 0; i < right->num_keys; ++i) {
        right->slots[i] = right->slots[i + 1];
      }
      --right->num_keys;
    }
    return child_off;
  }

  // Merge. Prefer merging into the left sibling; otherwise pull the right
  // sibling into the child. Either way one node is freed and the separator
  // leaves the parent.
  Node* dst;
  const Node* src_view;
  uint64_t dst_off, src_off;
  uint32_t sep_idx;
  if (left_view != nullptr) {
    Node* child;
    Node* left;
    KAMINO_RETURN_IF_ERROR(open_pair(child_off, left_off, &child, &left));
    dst = left;
    dst_off = left_off;
    src_view = child;
    src_off = child_off;
    sep_idx = child_idx - 1;
  } else {
    Node* child;
    Node* right;
    KAMINO_RETURN_IF_ERROR(open_pair(child_off, right_off, &child, &right));
    dst = child;
    dst_off = child_off;
    src_view = right;
    src_off = right_off;
    sep_idx = child_idx;
  }

  if (dst->is_leaf) {
    std::memcpy(dst->keys + dst->num_keys, src_view->keys,
                src_view->num_keys * sizeof(uint64_t));
    std::memcpy(dst->slots + dst->num_keys, src_view->slots,
                src_view->num_keys * sizeof(uint64_t));
    dst->num_keys += src_view->num_keys;
    dst->next = src_view->next;
  } else {
    dst->keys[dst->num_keys] = parent->keys[sep_idx];
    std::memcpy(dst->keys + dst->num_keys + 1, src_view->keys,
                src_view->num_keys * sizeof(uint64_t));
    std::memcpy(dst->slots + dst->num_keys + 1, src_view->slots,
                (src_view->num_keys + 1) * sizeof(uint64_t));
    dst->num_keys += src_view->num_keys + 1;
  }

  // Remove separator + source slot from the parent.
  for (uint32_t i = sep_idx; i + 1 < parent->num_keys; ++i) {
    parent->keys[i] = parent->keys[i + 1];
  }
  for (uint32_t i = sep_idx + 1; i < parent->num_keys; ++i) {
    parent->slots[i] = parent->slots[i + 1];
  }
  --parent->num_keys;
  KAMINO_RETURN_IF_ERROR(tx.Free(src_off));
  (void)key;
  return dst_off;
}

Status BPlusTree::DoDelete(txn::Tx& tx, uint64_t key) {
  const Header* hdr = HeaderView(tx);
  uint64_t cur_off = hdr->root;

  for (;;) {
    const Node* cur = NodeView(tx, cur_off);
    if (cur->is_leaf) {
      const uint32_t pos = LowerBound(cur, key);
      if (pos >= cur->num_keys || cur->keys[pos] != key) {
        return Status::NotFound("key absent");
      }
      Result<void*> lw = tx.OpenWrite(cur_off, sizeof(Node));
      if (!lw.ok()) {
        return lw.status();
      }
      auto* leaf = static_cast<Node*>(*lw);
      KAMINO_RETURN_IF_ERROR(tx.Free(leaf->slots[pos]));
      for (uint32_t i = pos; i + 1 < leaf->num_keys; ++i) {
        leaf->keys[i] = leaf->keys[i + 1];
        leaf->slots[i] = leaf->slots[i + 1];
      }
      --leaf->num_keys;
      return Status::Ok();
    }

    const uint32_t ci = ChildIndex(cur, key);
    uint64_t child_off = cur->slots[ci];
    const Node* child = NodeView(tx, child_off);
    if (child->num_keys <= kMinKeys) {
      Result<void*> cw = tx.OpenWrite(cur_off, sizeof(Node));
      if (!cw.ok()) {
        return cw.status();
      }
      auto* cur_w = static_cast<Node*>(*cw);
      Result<uint64_t> fixed = FixChildForDelete(tx, cur_w, ci, key);
      if (!fixed.ok()) {
        return fixed.status();
      }
      child_off = *fixed;
      // Root collapse: an inner root left with zero keys has a single child.
      if (cur_off == HeaderView(tx)->root && cur_w->num_keys == 0) {
        Result<void*> hw = tx.OpenWrite(header_off_, sizeof(Header));
        if (!hw.ok()) {
          return hw.status();
        }
        auto* hdr_w = static_cast<Header*>(*hw);
        hdr_w->root = child_off;
        --hdr_w->height;
        KAMINO_RETURN_IF_ERROR(tx.Free(cur_off));
      }
    }
    cur_off = child_off;
  }
}

// --- Read paths ---------------------------------------------------------------

Result<std::string> BPlusTree::GetInTx(txn::Tx& tx, uint64_t key) {
  const Header* hdr = HeaderView(tx);
  uint64_t cur_off = hdr->root;
  for (;;) {
    const Node* cur = NodeView(tx, cur_off);
    if (cur->is_leaf) {
      // No leaf lock: the latch keeps node writers out (see the header).
      const uint32_t pos = LowerBound(cur, key);
      if (pos >= cur->num_keys || cur->keys[pos] != key) {
        return Status::NotFound("key absent");
      }
      return ReadBlobLocked(tx, cur->slots[pos]);
    }
    cur_off = cur->slots[ChildIndex(cur, key)];
  }
}

Result<std::vector<std::pair<uint64_t, std::string>>> BPlusTree::ScanInTx(txn::Tx& tx,
                                                                          uint64_t start,
                                                                          size_t limit) {
  std::vector<std::pair<uint64_t, std::string>> out;
  const Header* hdr = HeaderView(tx);
  uint64_t cur_off = hdr->root;
  const Node* cur = NodeView(tx, cur_off);
  while (!cur->is_leaf) {
    cur_off = cur->slots[ChildIndex(cur, start)];
    cur = NodeView(tx, cur_off);
  }
  while (out.size() < limit && cur_off != 0) {
    cur = NodeView(tx, cur_off);
    for (uint32_t i = LowerBound(cur, start); i < cur->num_keys && out.size() < limit; ++i) {
      Result<std::string> v = ReadBlobLocked(tx, cur->slots[i]);
      if (!v.ok()) {
        return v.status();
      }
      out.emplace_back(cur->keys[i], std::move(*v));
    }
    cur_off = cur->next;
  }
  return out;
}

Result<std::pair<uint64_t, std::string>> BPlusTree::FirstAtLeastInTx(txn::Tx& tx,
                                                                     uint64_t start) {
  const Header* hdr = HeaderView(tx);
  uint64_t cur_off = hdr->root;
  const Node* cur = NodeView(tx, cur_off);
  while (!cur->is_leaf) {
    cur_off = cur->slots[ChildIndex(cur, start)];
    cur = NodeView(tx, cur_off);
  }
  while (cur_off != 0) {
    cur = NodeView(tx, cur_off);
    const uint32_t pos = LowerBound(cur, start);
    if (pos < cur->num_keys) {
      const uint64_t blob_off = cur->slots[pos];
      const void* p = tx.OpenedPointer(blob_off);
      if (p == nullptr) {
        p = heap_->pool()->At(blob_off);
      }
      const auto* blob = static_cast<const Blob*>(p);
      return std::make_pair(cur->keys[pos],
                            std::string(reinterpret_cast<const char*>(blob->data), blob->size));
    }
    cur_off = cur->next;
  }
  return Status::NotFound("no key at or above start");
}

Status BPlusTree::UpdateInTx(txn::Tx& tx, uint64_t key, std::string_view value) {
  const Header* hdr = HeaderView(tx);
  uint64_t cur_off = hdr->root;
  for (;;) {
    const Node* cur = NodeView(tx, cur_off);
    if (cur->is_leaf) {
      const uint32_t pos = LowerBound(cur, key);
      if (pos >= cur->num_keys || cur->keys[pos] != key) {
        return Status::NotFound("key absent");
      }
      const uint64_t blob_off = cur->slots[pos];
      const uint64_t capacity = heap_->ObjectSize(blob_off);
      if (capacity < sizeof(uint32_t) + value.size()) {
        return NeedsRealloc();  // Outer layer retries on the exclusive path.
      }
      // Exact modified range, not the blob's whole size class: this is what
      // gets snapshotted (undo), shadowed (CoW) and flushed at commit.
      Result<void*> bw = tx.OpenWrite(blob_off, sizeof(uint32_t) + value.size());
      if (!bw.ok()) {
        return bw.status();
      }
      auto* blob = static_cast<Blob*>(*bw);
      blob->size = static_cast<uint32_t>(value.size());
      std::memcpy(blob->data, value.data(), value.size());
      return Status::Ok();
    }
    cur_off = cur->slots[ChildIndex(cur, key)];
  }
}

Status BPlusTree::ReadModifyWriteInTx(txn::Tx& tx, uint64_t key,
                                      const std::function<void(std::string&)>& mutate) {
  const Header* hdr = HeaderView(tx);
  uint64_t cur_off = hdr->root;
  for (;;) {
    const Node* cur = NodeView(tx, cur_off);
    if (cur->is_leaf) {
      const uint32_t pos = LowerBound(cur, key);
      if (pos >= cur->num_keys || cur->keys[pos] != key) {
        return Status::NotFound("key absent");
      }
      const uint64_t blob_off = cur->slots[pos];
      // Declare write intent FIRST, then read through the write pointer.
      Result<void*> bw = tx.OpenWrite(blob_off, 0);
      if (!bw.ok()) {
        return bw.status();
      }
      auto* blob = static_cast<Blob*>(*bw);
      std::string value(reinterpret_cast<const char*>(blob->data), blob->size);
      mutate(value);
      const uint64_t capacity = heap_->ObjectSize(blob_off);
      if (capacity < sizeof(uint32_t) + value.size()) {
        return NeedsRealloc();
      }
      blob->size = static_cast<uint32_t>(value.size());
      std::memcpy(blob->data, value.data(), value.size());
      return Status::Ok();
    }
    cur_off = cur->slots[ChildIndex(cur, key)];
  }
}

Status BPlusTree::ReadModifyWrite(uint64_t key,
                                  const std::function<void(std::string&)>& mutate) {
  {
    auto guard = LockShared();
    Status st =
        mgr_->RunWithRetries([&](txn::Tx& tx) { return ReadModifyWriteInTx(tx, key, mutate); });
    if (st.code() != StatusCode::kNotSupported) {
      return st;
    }
  }
  // The mutated value outgrew the blob: redo on the structural path. The
  // old value is read through a write intent (not a read lock) so the
  // replace path's Free of the blob re-enters the same lock.
  auto guard = LockExclusive();
  return mgr_->RunWithRetries([&](txn::Tx& tx) -> Status {
    const Header* hdr = HeaderView(tx);
    uint64_t cur_off = hdr->root;
    const Node* cur = NodeView(tx, cur_off);
    while (!cur->is_leaf) {
      cur_off = cur->slots[ChildIndex(cur, key)];
      cur = NodeView(tx, cur_off);
    }
    const uint32_t pos = LowerBound(cur, key);
    if (pos >= cur->num_keys || cur->keys[pos] != key) {
      return Status::NotFound("key absent");
    }
    Result<void*> bw = tx.OpenWrite(cur->slots[pos], 0);
    if (!bw.ok()) {
      return bw.status();
    }
    const auto* blob = static_cast<const Blob*>(*bw);
    std::string value(reinterpret_cast<const char*>(blob->data), blob->size);
    mutate(value);
    return ReplaceInTx(tx, key, value);
  });
}

Status BPlusTree::InsertInTx(txn::Tx& tx, uint64_t key, std::string_view value) {
  return DoInsert(tx, key, value, /*allow_update=*/false, /*require_existing=*/false);
}

Status BPlusTree::UpsertInTx(txn::Tx& tx, uint64_t key, std::string_view value) {
  return DoInsert(tx, key, value, /*allow_update=*/true, /*require_existing=*/false);
}

Status BPlusTree::ReplaceInTx(txn::Tx& tx, uint64_t key, std::string_view value) {
  return DoInsert(tx, key, value, /*allow_update=*/true, /*require_existing=*/true);
}

Status BPlusTree::DeleteInTx(txn::Tx& tx, uint64_t key) { return DoDelete(tx, key); }

// --- Self-contained wrappers ---------------------------------------------------

Status BPlusTree::Insert(uint64_t key, std::string_view value) {
  auto guard = LockExclusive();
  return mgr_->RunWithRetries([&](txn::Tx& tx) { return InsertInTx(tx, key, value); });
}

Status BPlusTree::Upsert(uint64_t key, std::string_view value) {
  auto guard = LockExclusive();
  return mgr_->RunWithRetries([&](txn::Tx& tx) { return UpsertInTx(tx, key, value); });
}

Status BPlusTree::Update(uint64_t key, std::string_view value, txn::CommitAck* ack) {
  {
    auto guard = LockShared();
    Status st = mgr_->RunWithRetries(
        [&](txn::Tx& tx) { return UpdateInTx(tx, key, value); }, ack);
    if (st.code() != StatusCode::kNotSupported) {
      return st;
    }
  }
  // Blob must grow: retry on the structural path (exclusive lock, leaf slot
  // rewrite via upsert-with-existing-required semantics). Synchronous — the
  // failed run left `ack` at ticket 0, and regrows are rare enough that
  // pipelining them buys nothing.
  auto guard = LockExclusive();
  return mgr_->RunWithRetries([&](txn::Tx& tx) {
    return ReplaceInTx(tx, key, value);
  });
}

Result<std::string> BPlusTree::Get(uint64_t key) {
  auto guard = LockShared();
  std::string out;
  Status st = mgr_->RunWithRetries([&](txn::Tx& tx) -> Status {
    Result<std::string> v = GetInTx(tx, key);
    if (!v.ok()) {
      return v.status();
    }
    out = std::move(*v);
    return Status::Ok();
  });
  if (!st.ok()) {
    return st;
  }
  return out;
}

Status BPlusTree::Delete(uint64_t key) {
  auto guard = LockExclusive();
  return mgr_->RunWithRetries([&](txn::Tx& tx) { return DeleteInTx(tx, key); });
}

Result<std::vector<std::pair<uint64_t, std::string>>> BPlusTree::Scan(uint64_t start,
                                                                      size_t limit) {
  auto guard = LockShared();
  std::vector<std::pair<uint64_t, std::string>> out;
  Status st = mgr_->RunWithRetries([&](txn::Tx& tx) -> Status {
    Result<std::vector<std::pair<uint64_t, std::string>>> r = ScanInTx(tx, start, limit);
    if (!r.ok()) {
      return r.status();
    }
    out = std::move(*r);
    return Status::Ok();
  });
  if (!st.ok()) {
    return st;
  }
  return out;
}

// --- Backup-snapshot reads (DESIGN.md §12) ------------------------------------

Result<std::string> BPlusTree::SnapshotReadBlob(txn::BackupStore::SnapshotView& view,
                                                uint64_t blob_off) const {
  // Two object-start reads: first the size prefix, then the whole blob. Both
  // yield cut-state bytes even if a writer slips between them (a pre-image
  // inserted in the window still holds the cut content), so the size and the
  // payload are mutually consistent.
  uint32_t size = 0;
  KAMINO_RETURN_IF_ERROR(view.Read(blob_off, sizeof(uint32_t), &size));
  if (size == 0) {
    return std::string();
  }
  std::vector<uint8_t> buf(sizeof(uint32_t) + size);
  KAMINO_RETURN_IF_ERROR(view.Read(blob_off, buf.size(), buf.data()));
  return std::string(reinterpret_cast<const char*>(buf.data()) + sizeof(uint32_t), size);
}

Result<std::string> BPlusTree::SnapshotGet(txn::BackupStore::SnapshotView& view,
                                           uint64_t key) const {
  if (!view.valid()) {
    return Status::InvalidArgument("snapshot view is not open");
  }
  Header hdr;
  KAMINO_RETURN_IF_ERROR(view.Read(header_off_, sizeof(Header), &hdr));
  Node node;
  uint64_t off = hdr.root;
  for (uint64_t depth = 1;; ++depth) {
    if (depth > hdr.height) {
      return Status::Corruption("snapshot descent exceeded tree height");
    }
    KAMINO_RETURN_IF_ERROR(view.Read(off, sizeof(Node), &node));
    if (node.is_leaf != 0) {
      break;
    }
    off = node.slots[ChildIndex(&node, key)];
  }
  const uint32_t idx = LowerBound(&node, key);
  if (idx >= node.num_keys || node.keys[idx] != key) {
    return Status::NotFound("key not in store");
  }
  return SnapshotReadBlob(view, node.slots[idx]);
}

Result<std::vector<std::pair<uint64_t, std::string>>> BPlusTree::SnapshotScan(
    txn::BackupStore::SnapshotView& view, uint64_t start, size_t limit) const {
  std::vector<std::pair<uint64_t, std::string>> out;
  if (!view.valid()) {
    return Status::InvalidArgument("snapshot view is not open");
  }
  if (limit == 0) {
    return out;
  }
  Header hdr;
  KAMINO_RETURN_IF_ERROR(view.Read(header_off_, sizeof(Header), &hdr));
  Node node;
  uint64_t off = hdr.root;
  for (uint64_t depth = 1;; ++depth) {
    if (depth > hdr.height) {
      return Status::Corruption("snapshot descent exceeded tree height");
    }
    KAMINO_RETURN_IF_ERROR(view.Read(off, sizeof(Node), &node));
    if (node.is_leaf != 0) {
      break;
    }
    off = node.slots[ChildIndex(&node, start)];
  }
  // Leaf-chain walk: `next` offsets are stable for the lifetime of this view
  // (frees are deferred to the gated apply), so following them is safe here —
  // but never across views.
  uint32_t idx = LowerBound(&node, start);
  for (;;) {
    for (; idx < node.num_keys && out.size() < limit; ++idx) {
      Result<std::string> v = SnapshotReadBlob(view, node.slots[idx]);
      if (!v.ok()) {
        return v.status();
      }
      out.emplace_back(node.keys[idx], std::move(*v));
    }
    if (out.size() >= limit || node.next == 0) {
      break;
    }
    KAMINO_RETURN_IF_ERROR(view.Read(node.next, sizeof(Node), &node));
    idx = 0;
  }
  return out;
}

// --- Diagnostics ----------------------------------------------------------------

uint64_t BPlusTree::CountSlow() const {
  const Header* hdr = header();
  uint64_t off = hdr->root;
  const Node* n = NodeAt(off);
  while (!n->is_leaf) {
    off = n->slots[0];
    n = NodeAt(off);
  }
  uint64_t count = 0;
  while (off != 0) {
    n = NodeAt(off);
    count += n->num_keys;
    off = n->next;
  }
  return count;
}

BPlusTree::TreeStats BPlusTree::Stats() const {
  TreeStats s;
  const Header* hdr = header();
  s.height = hdr->height;
  // Inner nodes via depth-first walk; leaves via the chain.
  std::vector<uint64_t> stack;
  if (hdr->height > 1) {
    stack.push_back(hdr->root);
  }
  while (!stack.empty()) {
    const Node* n = NodeAt(stack.back());
    stack.pop_back();
    ++s.inner_nodes;
    for (uint32_t i = 0; i <= n->num_keys; ++i) {
      if (!NodeAt(n->slots[i])->is_leaf) {
        stack.push_back(n->slots[i]);
      }
    }
  }
  uint64_t off = hdr->root;
  const Node* n = NodeAt(off);
  while (!n->is_leaf) {
    off = n->slots[0];
    n = NodeAt(off);
  }
  while (off != 0) {
    n = NodeAt(off);
    ++s.leaf_nodes;
    s.keys += n->num_keys;
    off = n->next;
  }
  if (s.leaf_nodes > 0) {
    s.avg_leaf_fill = static_cast<double>(s.keys) /
                      static_cast<double>(s.leaf_nodes * kMaxKeys);
  }
  return s;
}

Status BPlusTree::ValidateNode(uint64_t off, uint64_t depth, uint64_t height,
                               uint64_t* leaf_count, uint64_t min_key, uint64_t max_key,
                               bool has_min, bool has_max) const {
  const Node* n = NodeAt(off);
  if (heap_->ObjectSize(off) < sizeof(Node)) {
    return Status::Corruption("node offset not a live allocation");
  }
  const bool is_root = (depth == 1);
  if (!is_root && n->num_keys < kMinKeys) {
    return Status::Corruption("underfull non-root node");
  }
  if (n->num_keys > kMaxKeys) {
    return Status::Corruption("overfull node");
  }
  for (uint32_t i = 0; i + 1 < n->num_keys; ++i) {
    if (n->keys[i] >= n->keys[i + 1]) {
      return Status::Corruption("keys not strictly sorted");
    }
  }
  for (uint32_t i = 0; i < n->num_keys; ++i) {
    if (has_min && n->keys[i] < min_key) {
      return Status::Corruption("key below subtree bound");
    }
    if (has_max && n->keys[i] >= max_key) {
      return Status::Corruption("key above subtree bound");
    }
  }
  if (n->is_leaf) {
    if (depth != height) {
      return Status::Corruption("leaf at wrong depth");
    }
    for (uint32_t i = 0; i < n->num_keys; ++i) {
      if (heap_->ObjectSize(n->slots[i]) == 0) {
        return Status::Corruption("leaf references dead blob");
      }
    }
    *leaf_count += n->num_keys;
    return Status::Ok();
  }
  if (is_root && n->num_keys == 0) {
    return Status::Corruption("inner root with zero keys");
  }
  for (uint32_t i = 0; i <= n->num_keys; ++i) {
    const bool cmin = (i > 0) || has_min;
    const uint64_t nmin = (i > 0) ? n->keys[i - 1] : min_key;
    const bool cmax = (i < n->num_keys) || has_max;
    const uint64_t nmax = (i < n->num_keys) ? n->keys[i] : max_key;
    KAMINO_RETURN_IF_ERROR(
        ValidateNode(n->slots[i], depth + 1, height, leaf_count, nmin, nmax, cmin, cmax));
  }
  return Status::Ok();
}

Status BPlusTree::Validate() const {
  const Header* hdr = header();
  uint64_t leaf_count = 0;
  KAMINO_RETURN_IF_ERROR(
      ValidateNode(hdr->root, 1, hdr->height, &leaf_count, 0, 0, false, false));
  // Leaf chain must visit exactly the counted keys, in order.
  uint64_t off = hdr->root;
  const Node* n = NodeAt(off);
  while (!n->is_leaf) {
    off = n->slots[0];
    n = NodeAt(off);
  }
  uint64_t chained = 0;
  uint64_t prev_key = 0;
  bool first = true;
  while (off != 0) {
    n = NodeAt(off);
    for (uint32_t i = 0; i < n->num_keys; ++i) {
      if (!first && n->keys[i] <= prev_key) {
        return Status::Corruption("leaf chain out of order");
      }
      prev_key = n->keys[i];
      first = false;
      ++chained;
    }
    off = n->next;
  }
  if (chained != leaf_count) {
    return Status::Corruption("leaf chain count mismatch");
  }
  return Status::Ok();
}

}  // namespace kamino::pds
