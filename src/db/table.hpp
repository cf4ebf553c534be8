#ifndef KOJAK_DB_TABLE_HPP
#define KOJAK_DB_TABLE_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/schema.hpp"
#include "db/value.hpp"

namespace kojak::db {

class Table;

// ---------------------------------------------------------------------------
// Row-id encoding. A row id is stable for the lifetime of the row and
// encodes (partition, local offset): the high kRowIdPartitionBits carry the
// partition index, the remaining low bits the offset into that partition's
// heap. Partition 0 therefore encodes to the plain local offset, so an
// unpartitioned table keeps the exact ids it always had.

inline constexpr std::size_t kRowIdPartitionBits = 10;  // kMaxTablePartitions
inline constexpr std::size_t kRowIdLocalBits =
    sizeof(std::size_t) * 8 - kRowIdPartitionBits;
inline constexpr std::size_t kRowIdLocalMask =
    (std::size_t{1} << kRowIdLocalBits) - 1;

[[nodiscard]] constexpr std::size_t make_row_id(std::size_t partition,
                                                std::size_t local) noexcept {
  return (partition << kRowIdLocalBits) | local;
}
[[nodiscard]] constexpr std::size_t row_id_partition(std::size_t row_id) noexcept {
  return row_id >> kRowIdLocalBits;
}
[[nodiscard]] constexpr std::size_t row_id_local(std::size_t row_id) noexcept {
  return row_id & kRowIdLocalMask;
}

/// Secondary index over one column. Hash indexes serve equality probes,
/// ordered indexes additionally serve range scans. Indexes store row ids
/// into the table heap and are maintained on insert/update/delete.
///
/// Under table partitioning the index is itself sharded: one container per
/// partition, keyed off the row id's partition bits, so partition scans and
/// drops never touch foreign shards. When the indexed column IS the
/// partition column, equality probes route to exactly one shard (the shard
/// the heap's router put the key in); otherwise probes aggregate across
/// shards in partition order. Range results merge shard-local key order
/// into one global key order (stable: equal keys keep partition order), so
/// a single-partition table behaves byte-for-byte like the pre-partitioning
/// index.
class Index {
 public:
  enum class Kind { kHash, kOrdered };

  /// `router` must agree with the owning table's heap routing; `routed`
  /// marks the indexed column as the table's partition column.
  Index(std::string name, std::size_t column, Kind kind,
        PartitionRouter router = {}, bool routed = false);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }
  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return router_.partitions();
  }

  void insert(const Value& key, std::size_t row_id);
  void erase(const Value& key, std::size_t row_id);

  /// Row ids whose key equals `key` (total-order equality). Routes to one
  /// shard when the indexed column is the partition column; otherwise
  /// aggregates shards in partition order.
  [[nodiscard]] std::vector<std::size_t> equal_range(const Value& key) const;

  /// Row ids with lo <= key <= hi under the total order; only for kOrdered.
  [[nodiscard]] std::vector<std::size_t> range(const Value& lo, const Value& hi) const;

  /// Row ids within the optionally-open interval [lo, hi] (nullptr = no
  /// bound on that side); only for kOrdered. NULL keys are never returned
  /// (SQL comparisons with NULL are unknown). Results are in global key
  /// order regardless of sharding.
  [[nodiscard]] std::vector<std::size_t> range_open(const Value* lo,
                                                    const Value* hi) const;

 private:
  struct TotalLess {
    bool operator()(const Value& a, const Value& b) const noexcept {
      return Value::compare_total(a, b) < 0;
    }
  };
  using HashShard =
      std::unordered_multimap<Value, std::size_t, ValueHash, ValueEqTotal>;
  using OrderedShard = std::multimap<Value, std::size_t, TotalLess>;

  std::string name_;
  std::size_t column_;
  Kind kind_;
  PartitionRouter router_;
  bool routed_ = false;
  std::vector<HashShard> hash_;
  std::vector<OrderedShard> ordered_;
};

/// Partitioned, heap-organized table. The schema's PartitionSpec (absent =
/// one partition) hashes or range-routes one column across N partitions;
/// each partition owns its own row heap, tombstone bitmap, and index
/// shards. `Table` is the coordinating facade: row ids encode
/// (partition, local offset) and stay stable without compaction, exactly as
/// the single-heap table's offsets did (partition 0 ids ARE plain offsets).
/// Deleted rows become tombstones; `live` tracks validity per partition.
///
/// `STORAGE COLUMNAR` tables additionally maintain one typed vector per
/// column plus a validity bitmap per partition, lane-aligned with the row
/// heap (lane i of every column vector mirrors heap row i). The heap stays
/// the source of truth — `row(id)`, indexes, and row ids behave
/// identically in both modes — while the column vectors give the
/// executor's vectorized scan kernels contiguous typed data.
class Table {
 public:
  explicit Table(TableSchema schema);

  [[nodiscard]] const TableSchema& schema() const noexcept { return schema_; }
  [[nodiscard]] std::size_t live_row_count() const noexcept { return live_count_; }
  [[nodiscard]] std::size_t heap_size() const noexcept;

  // --- partition topology ---------------------------------------------------
  [[nodiscard]] std::size_t partition_count() const noexcept {
    return parts_.size();
  }
  /// Resolved index of the partition column; nullopt when unpartitioned.
  [[nodiscard]] std::optional<std::size_t> partition_column() const noexcept {
    return partition_column_;
  }
  /// Partition a value of the partition column routes to (0 when
  /// unpartitioned; NULLs route to 0).
  [[nodiscard]] std::size_t route(const Value& v) const noexcept {
    return router_.route(v);
  }
  [[nodiscard]] std::size_t partition_live_count(std::size_t partition) const {
    return parts_.at(partition).live_count;
  }

  // --- partition versions ---------------------------------------------------
  // Every partition carries a monotonic version counter, bumped by each
  // mutation that touches it: insert and delete bump the owning partition,
  // an in-place update bumps its partition once, and an update that moves
  // the row across partitions bumps BOTH sides (the tombstoned source and
  // the appending target). Versions are what incremental consumers key on:
  // a cached per-partition result is valid exactly while the partition's
  // version is unchanged, and replica staleness is a version comparison.
  [[nodiscard]] std::uint64_t partition_version(std::size_t partition) const {
    return parts_.at(partition).version;
  }
  /// Sum of all partition versions: a monotonic whole-table data version
  /// (any mutation advances it by >= 1).
  [[nodiscard]] std::uint64_t table_version() const noexcept;

  /// Validates arity, coerces values to column types, enforces NOT NULL and
  /// primary-key uniqueness, routes the row to its partition, appends it,
  /// updates indexes. Returns the new row id.
  std::size_t insert(Row row);

  [[nodiscard]] bool is_live(std::size_t row_id) const {
    const std::size_t p = row_id_partition(row_id);
    const std::size_t local = row_id_local(row_id);
    return p < parts_.size() && local < parts_[p].rows.size() &&
           parts_[p].live[local];
  }
  [[nodiscard]] const Row& row(std::size_t row_id) const {
    return parts_.at(row_id_partition(row_id)).rows.at(row_id_local(row_id));
  }

  void erase(std::size_t row_id);
  /// Replaces the row in place (same validation as insert). When the new
  /// value of the partition column routes elsewhere, the row moves: the old
  /// id dies and the row re-appears under a fresh id in the target
  /// partition (indexes follow).
  void update(std::size_t row_id, Row row);

  /// All live row ids: partitions in order, heap order within each.
  [[nodiscard]] std::vector<std::size_t> live_rows() const;
  /// Live row ids of one partition, in heap order.
  [[nodiscard]] std::vector<std::size_t> live_rows_in(std::size_t partition) const;

  /// Zero-copy scan: fn(row_id, row) for every live row, partitions in
  /// order, heap order within each. The hot scan path — no row-id vector is
  /// materialized. `fn` must not mutate the table.
  template <typename Fn>
  void for_each_live_row(Fn&& fn) const {
    for (std::size_t p = 0; p < parts_.size(); ++p) {
      for_each_live_row_in(p, fn);
    }
  }
  /// The same over a single partition (parallel partition scans give each
  /// worker one partition).
  template <typename Fn>
  void for_each_live_row_in(std::size_t partition, Fn&& fn) const {
    const PartitionStore& part = parts_.at(partition);
    for (std::size_t local = 0; local < part.rows.size(); ++local) {
      if (part.live[local]) fn(make_row_id(partition, local), part.rows[local]);
    }
  }

  // --- columnar access --------------------------------------------------------
  /// True when the schema declared STORAGE COLUMNAR (column vectors are
  /// maintained and column_slice() is usable).
  [[nodiscard]] bool columnar() const noexcept {
    return schema_.storage() == StorageMode::kColumnar;
  }
  /// One partition's worth of one column, as raw typed lanes. Exactly one
  /// of ints/reals/strs is non-null, chosen by the column's declared type:
  /// INTEGER/BOOLEAN/DATETIME lanes are int64 (bools as 0/1), DOUBLE lanes
  /// are double, TEXT lanes are std::string. `valid[i]` is 1 for non-NULL
  /// cells; NULL cells hold a zero value in the typed lane. Lanes cover
  /// tombstoned rows too — combine with live_bits() to skip them.
  struct ColumnSlice {
    const std::int64_t* ints = nullptr;
    const double* reals = nullptr;
    const std::string* strs = nullptr;
    const std::uint8_t* valid = nullptr;
    std::size_t size = 0;
  };
  /// Typed lanes of `column` in `partition`; throws when the table is not
  /// columnar (the vectors are not maintained in row mode).
  [[nodiscard]] ColumnSlice column_slice(std::size_t partition,
                                         std::size_t column) const;
  /// Per-partition liveness bitmap (1 = live), lane-aligned with the heap
  /// and with column_slice() lanes. Valid in both storage modes.
  [[nodiscard]] const std::uint8_t* live_bits(std::size_t partition) const {
    return parts_.at(partition).live.data();
  }
  /// One partition's key column bundled with its liveness bitmap — the unit
  /// the hash-join build/probe and GROUP BY key extraction consume. A lane
  /// is usable iff it is live (not tombstoned) AND valid (non-NULL): NULL
  /// keys never match under SQL equality and tombstones are deleted rows.
  struct KeySlice {
    ColumnSlice column;
    const std::uint8_t* live = nullptr;
    std::size_t partition = 0;
    [[nodiscard]] bool usable(std::size_t lane) const noexcept {
      return live[lane] != 0 && column.valid[lane] != 0;
    }
  };
  /// key_slice(p, c) = {column_slice(p, c), live_bits(p), p}. Columnar only.
  [[nodiscard]] KeySlice key_slice(std::size_t partition,
                                   std::size_t column) const;
  /// Heap size (live + tombstoned lanes) of one partition.
  [[nodiscard]] std::size_t partition_heap_size(std::size_t partition) const {
    return parts_.at(partition).rows.size();
  }

  Index& create_index(std::string name, std::size_t column, Index::Kind kind);
  [[nodiscard]] const Index* find_index_on(std::size_t column) const;
  [[nodiscard]] const std::vector<std::unique_ptr<Index>>& indexes() const noexcept {
    return indexes_;
  }

 private:
  /// One column's typed lanes in one partition (columnar mode only). The
  /// vector matching the column's type grows in lockstep with the heap; the
  /// other two stay empty.
  struct ColumnVec {
    std::vector<std::int64_t> ints;
    std::vector<double> reals;
    std::vector<std::string> strs;
    std::vector<std::uint8_t> valid;
  };

  /// One partition's storage: row heap + tombstone bitmap + version (+
  /// column vectors in columnar mode). `live` is byte-per-row so scan
  /// kernels can read it as a contiguous bitmap.
  struct PartitionStore {
    std::vector<Row> rows;
    std::vector<std::uint8_t> live;
    std::size_t live_count = 0;
    std::uint64_t version = 0;  ///< bumped by every mutation of this partition
    std::vector<ColumnVec> cols;  ///< empty unless the table is columnar
  };

  Row validate(Row row) const;
  [[nodiscard]] std::size_t route_row(const Row& row) const noexcept {
    return partition_column_ ? router_.route(row[*partition_column_]) : 0;
  }
  /// Appends an already-validated row to `partition`; returns the new id.
  std::size_t place_row(std::size_t partition, Row row);
  /// Columnar maintenance: appends one lane per column mirroring `row`, or
  /// overwrites the lanes at `lane` (in-place update).
  void append_column_lanes(PartitionStore& part, const Row& row);
  void overwrite_column_lanes(PartitionStore& part, std::size_t lane,
                              const Row& row);

  TableSchema schema_;
  PartitionRouter router_;
  std::optional<std::size_t> partition_column_;
  std::vector<PartitionStore> parts_;
  std::size_t live_count_ = 0;
  std::vector<std::unique_ptr<Index>> indexes_;
};

}  // namespace kojak::db

#endif  // KOJAK_DB_TABLE_HPP
