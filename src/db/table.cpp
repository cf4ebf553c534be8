#include "db/table.hpp"

#include <algorithm>
#include <queue>

#include "support/error.hpp"
#include "support/str.hpp"

namespace kojak::db {

using support::EvalError;

// ---------------------------------------------------------------------------
// Index

Index::Index(std::string name, std::size_t column, Kind kind,
             PartitionRouter router, bool routed)
    : name_(std::move(name)),
      column_(column),
      kind_(kind),
      router_(std::move(router)),
      routed_(routed) {
  if (kind_ == Kind::kHash) {
    hash_.resize(router_.partitions());
  } else {
    ordered_.resize(router_.partitions());
  }
}

void Index::insert(const Value& key, std::size_t row_id) {
  const std::size_t shard = row_id_partition(row_id);
  if (kind_ == Kind::kHash) {
    hash_.at(shard).emplace(key, row_id);
  } else {
    ordered_.at(shard).emplace(key, row_id);
  }
}

void Index::erase(const Value& key, std::size_t row_id) {
  const std::size_t shard = row_id_partition(row_id);
  if (kind_ == Kind::kHash) {
    auto [begin, end] = hash_.at(shard).equal_range(key);
    for (auto it = begin; it != end; ++it) {
      if (it->second == row_id) {
        hash_[shard].erase(it);
        return;
      }
    }
  } else {
    auto [begin, end] = ordered_.at(shard).equal_range(key);
    for (auto it = begin; it != end; ++it) {
      if (it->second == row_id) {
        ordered_[shard].erase(it);
        return;
      }
    }
  }
}

std::vector<std::size_t> Index::equal_range(const Value& key) const {
  std::vector<std::size_t> out;
  // The indexed column being the partition column means the heap router
  // already decided which shard this key's rows live in: probe only it.
  const std::size_t first = routed_ ? router_.route(key) : 0;
  const std::size_t last = routed_ ? first + 1 : shard_count();
  for (std::size_t shard = first; shard < last; ++shard) {
    if (kind_ == Kind::kHash) {
      auto [begin, end] = hash_[shard].equal_range(key);
      for (auto it = begin; it != end; ++it) out.push_back(it->second);
    } else {
      auto [begin, end] = ordered_[shard].equal_range(key);
      for (auto it = begin; it != end; ++it) out.push_back(it->second);
    }
  }
  return out;
}

std::vector<std::size_t> Index::range(const Value& lo, const Value& hi) const {
  return range_open(&lo, &hi);
}

std::vector<std::size_t> Index::range_open(const Value* lo,
                                           const Value* hi) const {
  if (kind_ != Kind::kOrdered) {
    throw EvalError(support::cat("index ", name_, " does not support range scans"));
  }
  const auto scan_shard = [&](const OrderedShard& shard, auto&& emit) {
    auto it = lo != nullptr ? shard.lower_bound(*lo) : shard.begin();
    for (; it != shard.end(); ++it) {
      if (it->first.is_null()) continue;
      if (hi != nullptr && Value::compare_total(it->first, *hi) > 0) break;
      emit(it->first, it->second);
    }
  };

  std::vector<std::size_t> out;
  if (ordered_.size() == 1) {
    scan_shard(ordered_[0], [&](const Value&, std::size_t id) {
      out.push_back(id);
    });
    return out;
  }

  // Multi-shard: each shard yields its slice already in key order; a k-way
  // heap merge over (key pointer, shard) produces global key order without
  // copying keys, and the shard-index tie-break keeps equal keys in
  // partition order — the deterministic merge the scan contract promises.
  std::vector<std::vector<std::pair<const Value*, std::size_t>>> slices(
      ordered_.size());
  std::size_t total = 0;
  for (std::size_t shard = 0; shard < ordered_.size(); ++shard) {
    scan_shard(ordered_[shard], [&](const Value& key, std::size_t id) {
      slices[shard].emplace_back(&key, id);
    });
    total += slices[shard].size();
  }
  struct Head {
    std::size_t shard;
    std::size_t pos;
  };
  const auto after = [&](const Head& a, const Head& b) {
    const int cmp = Value::compare_total(*slices[a.shard][a.pos].first,
                                         *slices[b.shard][b.pos].first);
    if (cmp != 0) return cmp > 0;
    return a.shard > b.shard;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(after)> heap(after);
  for (std::size_t shard = 0; shard < slices.size(); ++shard) {
    if (!slices[shard].empty()) heap.push({shard, 0});
  }
  out.reserve(total);
  while (!heap.empty()) {
    const Head head = heap.top();
    heap.pop();
    out.push_back(slices[head.shard][head.pos].second);
    if (head.pos + 1 < slices[head.shard].size()) {
      heap.push({head.shard, head.pos + 1});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Table

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  if (const auto& spec = schema_.partition()) {
    // TableSchema::set_partition is the only way a spec gets here and it
    // already validated the column, count, and bounds — just resolve the
    // routing column.
    partition_column_ = schema_.find_column(spec->column);
    router_ = PartitionRouter(*spec);
  }
  parts_.resize(router_.partitions());
  if (columnar()) {
    for (PartitionStore& part : parts_) {
      part.cols.resize(schema_.column_count());
    }
  }
}

std::size_t Table::heap_size() const noexcept {
  std::size_t total = 0;
  for (const PartitionStore& part : parts_) total += part.rows.size();
  return total;
}

std::uint64_t Table::table_version() const noexcept {
  std::uint64_t total = 0;
  for (const PartitionStore& part : parts_) total += part.version;
  return total;
}

Row Table::validate(Row row) const {
  if (row.size() != schema_.column_count()) {
    throw EvalError(support::cat("table ", schema_.name(), " expects ",
                                 schema_.column_count(), " values, got ",
                                 row.size()));
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    const ColumnDef& col = schema_.column(i);
    row[i] = row[i].coerce_to(col.type);
    if (row[i].is_null() && (!col.nullable || col.primary_key)) {
      throw EvalError(support::cat("NULL not allowed in ", schema_.name(), ".",
                                   col.name));
    }
  }
  return row;
}

namespace {

// Which typed lane vector a column's cells live in: INTEGER, BOOLEAN, and
// DATETIME all encode as int64 lanes; DOUBLE as double lanes; TEXT as
// string lanes. Must stay in sync with Table::ColumnSlice's doc contract.
bool uses_int_lanes(ValueType type) noexcept {
  return type == ValueType::kInt || type == ValueType::kBool ||
         type == ValueType::kDateTime;
}

std::int64_t int_lane_of(const Value& v, ValueType type) {
  if (v.is_null()) return 0;
  if (type == ValueType::kBool) return v.as_bool() ? 1 : 0;
  if (type == ValueType::kDateTime) return v.as_datetime();
  return v.as_int();
}

}  // namespace

void Table::append_column_lanes(PartitionStore& part, const Row& row) {
  for (std::size_t c = 0; c < row.size(); ++c) {
    ColumnVec& col = part.cols[c];
    const Value& v = row[c];
    const ValueType type = schema_.column(c).type;
    col.valid.push_back(v.is_null() ? 0 : 1);
    if (uses_int_lanes(type)) {
      col.ints.push_back(int_lane_of(v, type));
    } else if (type == ValueType::kDouble) {
      col.reals.push_back(v.is_null() ? 0.0 : v.as_double());
    } else {
      col.strs.push_back(v.is_null() ? std::string() : v.as_string());
    }
  }
}

void Table::overwrite_column_lanes(PartitionStore& part, std::size_t lane,
                                   const Row& row) {
  for (std::size_t c = 0; c < row.size(); ++c) {
    ColumnVec& col = part.cols[c];
    const Value& v = row[c];
    const ValueType type = schema_.column(c).type;
    col.valid[lane] = v.is_null() ? 0 : 1;
    if (uses_int_lanes(type)) {
      col.ints[lane] = int_lane_of(v, type);
    } else if (type == ValueType::kDouble) {
      col.reals[lane] = v.is_null() ? 0.0 : v.as_double();
    } else {
      col.strs[lane] = v.is_null() ? std::string() : v.as_string();
    }
  }
}

Table::ColumnSlice Table::column_slice(std::size_t partition,
                                       std::size_t column) const {
  if (!columnar()) {
    throw EvalError(support::cat("table ", schema_.name(),
                                 " is not columnar; column slices are only "
                                 "maintained under STORAGE COLUMNAR"));
  }
  const PartitionStore& part = parts_.at(partition);
  const ColumnVec& col = part.cols.at(column);
  ColumnSlice slice;
  slice.valid = col.valid.data();
  slice.size = part.rows.size();
  const ValueType type = schema_.column(column).type;
  if (uses_int_lanes(type)) {
    slice.ints = col.ints.data();
  } else if (type == ValueType::kDouble) {
    slice.reals = col.reals.data();
  } else {
    slice.strs = col.strs.data();
  }
  return slice;
}

Table::KeySlice Table::key_slice(std::size_t partition,
                                 std::size_t column) const {
  return {column_slice(partition, column), live_bits(partition), partition};
}

std::size_t Table::place_row(std::size_t partition, Row row) {
  PartitionStore& part = parts_[partition];
  const std::size_t local = part.rows.size();
  if (local >= kRowIdLocalMask) {
    throw EvalError(support::cat("partition ", partition, " of table ",
                                 schema_.name(), " is full"));
  }
  const std::size_t row_id = make_row_id(partition, local);
  part.rows.push_back(std::move(row));
  part.live.push_back(1);
  if (columnar()) append_column_lanes(part, part.rows.back());
  ++part.live_count;
  ++part.version;
  ++live_count_;
  for (const auto& index : indexes_) {
    index->insert(part.rows.back()[index->column()], row_id);
  }
  return row_id;
}

std::size_t Table::insert(Row row) {
  row = validate(std::move(row));
  if (const auto pk = schema_.primary_key()) {
    if (const Index* index = find_index_on(*pk)) {
      if (!index->equal_range(row[*pk]).empty()) {
        throw EvalError(support::cat("duplicate primary key ",
                                     row[*pk].to_display(), " in table ",
                                     schema_.name()));
      }
    } else {
      for (const PartitionStore& part : parts_) {
        for (std::size_t local = 0; local < part.rows.size(); ++local) {
          if (part.live[local] && part.rows[local][*pk].equals_total(row[*pk])) {
            throw EvalError(support::cat("duplicate primary key ",
                                         row[*pk].to_display(), " in table ",
                                         schema_.name()));
          }
        }
      }
    }
  }
  const std::size_t target = route_row(row);
  return place_row(target, std::move(row));
}

void Table::erase(std::size_t row_id) {
  if (!is_live(row_id)) {
    throw EvalError(support::cat("row ", row_id, " is not live in table ",
                                 schema_.name()));
  }
  PartitionStore& part = parts_[row_id_partition(row_id)];
  const std::size_t local = row_id_local(row_id);
  for (const auto& index : indexes_) {
    index->erase(part.rows[local][index->column()], row_id);
  }
  part.live[local] = false;
  --part.live_count;
  ++part.version;
  --live_count_;
}

void Table::update(std::size_t row_id, Row row) {
  if (!is_live(row_id)) {
    throw EvalError(support::cat("row ", row_id, " is not live in table ",
                                 schema_.name()));
  }
  row = validate(std::move(row));
  const std::size_t partition = row_id_partition(row_id);
  const std::size_t target = route_row(row);
  PartitionStore& part = parts_[partition];
  const std::size_t local = row_id_local(row_id);
  for (const auto& index : indexes_) {
    index->erase(part.rows[local][index->column()], row_id);
  }
  if (target == partition) {
    part.rows[local] = std::move(row);
    if (columnar()) overwrite_column_lanes(part, local, part.rows[local]);
    for (const auto& index : indexes_) {
      index->insert(part.rows[local][index->column()], row_id);
    }
    ++part.version;
    return;
  }
  // The partition column changed its routing: the row moves. The old id
  // becomes a tombstone; validation already ran, so the move skips insert()
  // (whose duplicate-PK probe would find the row itself). Both sides'
  // versions move: the source here, the target inside place_row.
  part.live[local] = false;
  --part.live_count;
  ++part.version;
  --live_count_;
  place_row(target, std::move(row));
}

std::vector<std::size_t> Table::live_rows() const {
  std::vector<std::size_t> out;
  out.reserve(live_count_);
  for_each_live_row([&](std::size_t row_id, const Row&) {
    out.push_back(row_id);
  });
  return out;
}

std::vector<std::size_t> Table::live_rows_in(std::size_t partition) const {
  std::vector<std::size_t> out;
  out.reserve(parts_.at(partition).live_count);
  for_each_live_row_in(partition, [&](std::size_t row_id, const Row&) {
    out.push_back(row_id);
  });
  return out;
}

Index& Table::create_index(std::string name, std::size_t column, Index::Kind kind) {
  if (column >= schema_.column_count()) {
    throw EvalError(support::cat("index column ", column, " out of range for ",
                                 schema_.name()));
  }
  auto index = std::make_unique<Index>(
      std::move(name), column, kind, router_,
      partition_column_.has_value() && *partition_column_ == column);
  for_each_live_row([&](std::size_t row_id, const Row& row) {
    index->insert(row[column], row_id);
  });
  indexes_.push_back(std::move(index));
  return *indexes_.back();
}

const Index* Table::find_index_on(std::size_t column) const {
  for (const auto& index : indexes_) {
    if (index->column() == column) return index.get();
  }
  return nullptr;
}

}  // namespace kojak::db
