#include "src/workload/tpcc_lite.h"

#include <cstring>

namespace kamino::workload {

namespace {

template <typename T>
std::string Pack(const T& rec) {
  return std::string(reinterpret_cast<const char*>(&rec), sizeof(T));
}

template <typename T>
T Unpack(std::string_view bytes) {
  T rec{};
  std::memcpy(&rec, bytes.data(), std::min(bytes.size(), sizeof(T)));
  return rec;
}

// In-place record mutation for ReadModifyWrite bodies.
template <typename T, typename Fn>
auto Mutator(Fn&& fn) {
  return [fn = std::forward<Fn>(fn)](std::string& bytes) {
    T rec = Unpack<T>(bytes);
    fn(rec);
    bytes = Pack(rec);
  };
}

}  // namespace

Result<std::unique_ptr<TpccLite>> TpccLite::Create(txn::TxManager* mgr,
                                                   const Options& options) {
  if (mgr == nullptr) {
    return Status::InvalidArgument("null manager");
  }
  auto tpcc = std::unique_ptr<TpccLite>(new TpccLite(mgr, options));
  Status st = tpcc->Build();
  if (!st.ok()) {
    return st;
  }
  return tpcc;
}

Status TpccLite::Build() {
  auto make = [&](std::unique_ptr<pds::BPlusTree>* out) -> Status {
    Result<std::unique_ptr<pds::BPlusTree>> t = pds::BPlusTree::Create(mgr_);
    if (!t.ok()) {
      return t.status();
    }
    *out = std::move(*t);
    return Status::Ok();
  };
  KAMINO_RETURN_IF_ERROR(make(&item_));
  KAMINO_RETURN_IF_ERROR(make(&warehouse_));
  KAMINO_RETURN_IF_ERROR(make(&district_));
  KAMINO_RETURN_IF_ERROR(make(&customer_));
  KAMINO_RETURN_IF_ERROR(make(&stock_));
  KAMINO_RETURN_IF_ERROR(make(&orders_));
  KAMINO_RETURN_IF_ERROR(make(&order_line_));
  KAMINO_RETURN_IF_ERROR(make(&new_order_));
  return Status::Ok();
}

Status TpccLite::Load() {
  for (uint64_t i = 0; i < options_.items; ++i) {
    ItemRec rec{1.0 + static_cast<double>(i % 100)};
    KAMINO_RETURN_IF_ERROR(item_->Upsert(i, Pack(rec)));
  }
  for (uint64_t w = 0; w < options_.warehouses; ++w) {
    KAMINO_RETURN_IF_ERROR(warehouse_->Upsert(WKey(w), Pack(WarehouseRec{0})));
    for (uint64_t i = 0; i < options_.items; ++i) {
      KAMINO_RETURN_IF_ERROR(stock_->Upsert(SKey(w, i), Pack(StockRec{100, 0, 0})));
    }
    for (uint64_t d = 0; d < options_.districts; ++d) {
      KAMINO_RETURN_IF_ERROR(district_->Upsert(DKey(w, d), Pack(DistrictRec{0, 1})));
      for (uint64_t c = 0; c < options_.customers; ++c) {
        KAMINO_RETURN_IF_ERROR(
            customer_->Upsert(CKey(w, d, c), Pack(CustomerRec{1000.0, 0, 0, 0})));
      }
    }
  }
  mgr_->WaitIdle();
  return Status::Ok();
}

TpccLite::TxKind TpccLite::NextKind(Xoshiro256& rng) const {
  const double dice = rng.NextDouble();
  if (dice < 0.45) {
    return TxKind::kNewOrder;
  }
  if (dice < 0.88) {
    return TxKind::kPayment;
  }
  if (dice < 0.92) {
    return TxKind::kOrderStatus;
  }
  if (dice < 0.96) {
    return TxKind::kDelivery;
  }
  return TxKind::kStockLevel;
}

TpccLite::Stats TpccLite::stats() const {
  Stats s;
  s.new_order = new_order_count_.load(std::memory_order_relaxed);
  s.payment = payment_count_.load(std::memory_order_relaxed);
  s.order_status = order_status_count_.load(std::memory_order_relaxed);
  s.delivery = delivery_count_.load(std::memory_order_relaxed);
  s.stock_level = stock_level_count_.load(std::memory_order_relaxed);
  s.aborted = aborted_count_.load(std::memory_order_relaxed);
  return s;
}

Status TpccLite::RunTransaction(TxKind kind, Xoshiro256& rng) {
  Status st;
  switch (kind) {
    case TxKind::kNewOrder:
      st = NewOrder(rng);
      if (st.ok()) {
        new_order_count_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case TxKind::kPayment:
      st = Payment(rng);
      if (st.ok()) {
        payment_count_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case TxKind::kOrderStatus:
      st = OrderStatus(rng);
      if (st.ok()) {
        order_status_count_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case TxKind::kDelivery:
      st = Delivery(rng);
      if (st.ok()) {
        delivery_count_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case TxKind::kStockLevel:
      st = StockLevel(rng);
      if (st.ok()) {
        stock_level_count_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
  }
  if (!st.ok()) {
    aborted_count_.fetch_add(1, std::memory_order_relaxed);
  }
  return st;
}

Status TpccLite::NewOrder(Xoshiro256& rng) {
  const uint64_t w = rng.NextBounded(options_.warehouses);
  const uint64_t d = rng.NextBounded(options_.districts);
  const uint64_t c = rng.NextBounded(options_.customers);
  const uint64_t n_lines = 5 + rng.NextBounded(options_.max_order_lines - 4);
  std::vector<uint64_t> line_items(n_lines);
  std::vector<uint64_t> line_qtys(n_lines);
  for (uint64_t i = 0; i < n_lines; ++i) {
    line_items[i] = rng.NextBounded(options_.items);
    line_qtys[i] = 1 + rng.NextBounded(10);
  }

  // Fixed guard order across transaction profiles prevents guard deadlocks:
  // item, warehouse, district, customer, stock, orders, order_line,
  // new_order (the order the tables are built in).
  // Object locks follow one order as well, since the lock table has no
  // deadlock detection: warehouse, district, customer (Payment writes them
  // so; OrderStatus reads district first). Delivery writes its customer
  // last, but shares only reads of orders and order_line with the profiles
  // beside it. NewOrder (stock, order_line) and StockLevel (order_line,
  // stock) never overlap: NewOrder holds order_line's guard exclusive.
  auto g0 = item_->LockShared();
  auto g1 = district_->LockShared();
  auto g2 = stock_->LockShared();
  auto g3 = orders_->LockExclusive();
  auto g4 = order_line_->LockExclusive();
  auto g5 = new_order_->LockExclusive();

  return mgr_->RunWithRetries([&](txn::Tx& tx) -> Status {
    // District hands out the order id (write intent first, then read —
    // the supported RMW pattern).
    uint64_t o_id = 0;
    KAMINO_RETURN_IF_ERROR(district_->ReadModifyWriteInTx(
        tx, DKey(w, d), Mutator<DistrictRec>([&](DistrictRec& rec) {
          o_id = rec.next_o_id++;
        })));

    double total = 0;
    for (uint64_t i = 0; i < n_lines; ++i) {
      Result<std::string> item_bytes = item_->GetInTx(tx, line_items[i]);
      if (!item_bytes.ok()) {
        return item_bytes.status();
      }
      const ItemRec item = Unpack<ItemRec>(*item_bytes);
      const double amount = item.price * static_cast<double>(line_qtys[i]);
      total += amount;

      KAMINO_RETURN_IF_ERROR(stock_->ReadModifyWriteInTx(
          tx, SKey(w, line_items[i]), Mutator<StockRec>([&](StockRec& rec) {
            rec.quantity = rec.quantity > line_qtys[i] ? rec.quantity - line_qtys[i]
                                                       : rec.quantity + 91 - line_qtys[i];
            rec.ytd += amount;
            ++rec.order_cnt;
          })));
      KAMINO_RETURN_IF_ERROR(order_line_->InsertInTx(
          tx, OlKey(w, d, o_id, i), Pack(OrderLineRec{line_items[i], line_qtys[i], amount})));
    }
    KAMINO_RETURN_IF_ERROR(
        orders_->InsertInTx(tx, OKey(w, d, o_id), Pack(OrderRec{c, n_lines, 0})));
    KAMINO_RETURN_IF_ERROR(
        new_order_->InsertInTx(tx, OKey(w, d, o_id), Pack(NewOrderRec{o_id})));
    (void)total;
    return Status::Ok();
  });
}

Status TpccLite::Payment(Xoshiro256& rng) {
  const uint64_t w = rng.NextBounded(options_.warehouses);
  const uint64_t d = rng.NextBounded(options_.districts);
  const uint64_t c = rng.NextBounded(options_.customers);
  const double amount = 1.0 + static_cast<double>(rng.NextBounded(5000)) / 100.0;

  auto g1 = warehouse_->LockShared();
  auto g2 = district_->LockShared();
  auto g3 = customer_->LockShared();

  return mgr_->RunWithRetries([&](txn::Tx& tx) -> Status {
    KAMINO_RETURN_IF_ERROR(warehouse_->ReadModifyWriteInTx(
        tx, WKey(w), Mutator<WarehouseRec>([&](WarehouseRec& rec) { rec.ytd += amount; })));
    KAMINO_RETURN_IF_ERROR(district_->ReadModifyWriteInTx(
        tx, DKey(w, d), Mutator<DistrictRec>([&](DistrictRec& rec) { rec.ytd += amount; })));
    return customer_->ReadModifyWriteInTx(
        tx, CKey(w, d, c), Mutator<CustomerRec>([&](CustomerRec& rec) {
          rec.balance -= amount;
          rec.ytd_payment += amount;
          ++rec.payment_cnt;
        }));
  });
}

Status TpccLite::OrderStatus(Xoshiro256& rng) {
  const uint64_t w = rng.NextBounded(options_.warehouses);
  const uint64_t d = rng.NextBounded(options_.districts);
  const uint64_t c = rng.NextBounded(options_.customers);

  auto g1 = district_->LockShared();
  auto g2 = customer_->LockShared();
  auto g3 = orders_->LockShared();
  auto g4 = order_line_->LockShared();

  return mgr_->RunWithRetries([&](txn::Tx& tx) -> Status {
    // District before customer, the order Payment writes them in.
    Result<std::string> dist = district_->GetInTx(tx, DKey(w, d));
    if (!dist.ok()) {
      return dist.status();
    }
    Result<std::string> cust = customer_->GetInTx(tx, CKey(w, d, c));
    if (!cust.ok()) {
      return cust.status();
    }
    const DistrictRec drec = Unpack<DistrictRec>(*dist);
    if (drec.next_o_id <= 1) {
      return Status::Ok();  // No orders yet.
    }
    const uint64_t o_id = drec.next_o_id - 1;
    Result<std::string> order = orders_->GetInTx(tx, OKey(w, d, o_id));
    if (!order.ok()) {
      return order.status();
    }
    const OrderRec orec = Unpack<OrderRec>(*order);
    for (uint64_t i = 0; i < orec.ol_cnt; ++i) {
      Result<std::string> line = order_line_->GetInTx(tx, OlKey(w, d, o_id, i));
      if (!line.ok()) {
        return line.status();
      }
    }
    return Status::Ok();
  });
}

Status TpccLite::Delivery(Xoshiro256& rng) {
  const uint64_t w = rng.NextBounded(options_.warehouses);
  const uint64_t d = rng.NextBounded(options_.districts);

  auto g1 = customer_->LockShared();
  auto g2 = orders_->LockShared();
  auto g3 = order_line_->LockShared();
  auto g4 = new_order_->LockExclusive();

  return mgr_->RunWithRetries([&](txn::Tx& tx) -> Status {
    // Oldest undelivered order in this district. Read without object locks
    // (exclusive guard held; the same transaction deletes from this leaf).
    Result<std::pair<uint64_t, std::string>> oldest =
        new_order_->FirstAtLeastInTx(tx, OKey(w, d, 0));
    if (!oldest.ok()) {
      return oldest.status().code() == StatusCode::kNotFound ? Status::Ok()
                                                             : oldest.status();
    }
    if ((oldest->first >> 32) != ((w << 8) | d)) {
      return Status::Ok();  // Nothing to deliver here.
    }
    const uint64_t key = oldest->first;
    const uint64_t o_id = key & 0xFFFFFFFFull;
    KAMINO_RETURN_IF_ERROR(new_order_->DeleteInTx(tx, key));

    Result<std::string> order = orders_->GetInTx(tx, OKey(w, d, o_id));
    if (!order.ok()) {
      return order.status();
    }
    const OrderRec orec = Unpack<OrderRec>(*order);
    double total = 0;
    for (uint64_t i = 0; i < orec.ol_cnt; ++i) {
      Result<std::string> line = order_line_->GetInTx(tx, OlKey(w, d, o_id, i));
      if (!line.ok()) {
        return line.status();
      }
      total += Unpack<OrderLineRec>(*line).amount;
    }
    return customer_->ReadModifyWriteInTx(
        tx, CKey(w, d, orec.c_id), Mutator<CustomerRec>([&](CustomerRec& rec) {
          rec.balance += total;
          ++rec.delivery_cnt;
        }));
  });
}

Status TpccLite::StockLevel(Xoshiro256& rng) {
  const uint64_t w = rng.NextBounded(options_.warehouses);
  const uint64_t d = rng.NextBounded(options_.districts);
  constexpr uint64_t kThreshold = 50;
  constexpr uint64_t kRecentOrders = 20;

  auto g1 = district_->LockShared();
  auto g2 = stock_->LockShared();
  auto g3 = order_line_->LockShared();

  return mgr_->RunWithRetries([&](txn::Tx& tx) -> Status {
    Result<std::string> dist = district_->GetInTx(tx, DKey(w, d));
    if (!dist.ok()) {
      return dist.status();
    }
    const DistrictRec drec = Unpack<DistrictRec>(*dist);
    const uint64_t last = drec.next_o_id;
    const uint64_t first = last > kRecentOrders ? last - kRecentOrders : 1;
    uint64_t low = 0;
    for (uint64_t o = first; o < last; ++o) {
      // Up to max_order_lines lines per order; missing lines terminate.
      for (uint64_t i = 0; i < options_.max_order_lines; ++i) {
        Result<std::string> line = order_line_->GetInTx(tx, OlKey(w, d, o, i));
        if (!line.ok()) {
          break;
        }
        const OrderLineRec lrec = Unpack<OrderLineRec>(*line);
        Result<std::string> stock = stock_->GetInTx(tx, SKey(w, lrec.i_id));
        if (!stock.ok()) {
          return stock.status();
        }
        if (Unpack<StockRec>(*stock).quantity < kThreshold) {
          ++low;
        }
      }
    }
    (void)low;
    return Status::Ok();
  });
}

}  // namespace kamino::workload
