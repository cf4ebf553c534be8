#ifndef KOJAK_COSY_SHARD_CACHE_HPP
#define KOJAK_COSY_SHARD_CACHE_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "db/result.hpp"

namespace kojak::cosy {

/// Cross-epoch cache of materialized per-partition `part<K>` CTE results —
/// the storage half of incremental re-evaluation. The whole-condition
/// pipeline materializes full-table aggregates as one CTE per partition
/// (PR 5); those sub-results are pure functions of
///   (shard body SQL + bound parameters, referenced data versions),
/// so a monitor that re-runs the same plan after an ingest batch only needs
/// to recompute the partitions whose version token moved.
///
/// Keying: `fingerprint` identifies the *computation* — the caller builds it
/// from the rendered shard body text, the bound wire parameters, and the
/// owning database's identity/layout — while `version` is the data token
/// (the pinned partition's version combined with the versions of every other
/// table the body joins). The cache itself only compares tokens for
/// equality; all soundness reasoning lives with the caller (SqlEvaluator).
///
/// Results are held behind shared_ptr so an entry handed out for CTE
/// injection stays alive even if a concurrent store() replaces it.
/// Thread-safe. The cache has no cap and needs none: an entry for a
/// (fingerprint, partition) pair, or a statement memo for a fingerprint,
/// replaces in place, so the footprint is bounded by the watch list (the
/// statements and bound values it evaluates, times partitions), not by
/// epochs.
class ShardResultCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Misses where a prior entry existed at a different version — the
    /// "dirty partition" recomputes an incremental pass actually pays for
    /// (a first-touch miss is cold, not dirty).
    std::uint64_t dirty_recomputes = 0;
    std::size_t entries = 0;
    /// Whole-statement memo accounting (see probe_statement).
    std::uint64_t statement_hits = 0;
    std::uint64_t statement_misses = 0;
    std::size_t statement_entries = 0;
  };

  struct Probe {
    /// Non-null on hit: the cached partition rows at the probed version.
    std::shared_ptr<const db::QueryResult> rows;
    /// A prior entry existed but its version token differed (stale).
    bool stale = false;
  };

  /// Looks up (fingerprint, partition) and returns the cached rows when the
  /// stored version token equals `version`. Records hit/miss/dirty stats.
  [[nodiscard]] Probe probe(const std::string& fingerprint,
                            std::size_t partition, std::uint64_t version);

  /// Stores (replacing any prior entry for the pair) the materialized rows
  /// of one partition at `version`; returns the stored handle so the caller
  /// can inject it without re-probing.
  std::shared_ptr<const db::QueryResult> store(const std::string& fingerprint,
                                               std::size_t partition,
                                               std::uint64_t version,
                                               db::QueryResult rows);

  /// Whole-statement memo, one level above the partition entries: the final
  /// merged result of a statement whose `version` token covers EVERY table
  /// the statement reads (whole-table versions, computed by the caller). A
  /// hit means nothing the statement depends on changed since it last ran —
  /// the pass skips the statement entirely, not just its shard bodies.
  [[nodiscard]] std::shared_ptr<const db::QueryResult> probe_statement(
      const std::string& fingerprint, std::uint64_t version);
  std::shared_ptr<const db::QueryResult> store_statement(
      const std::string& fingerprint, std::uint64_t version,
      db::QueryResult rows);

  [[nodiscard]] Stats stats() const;
  void clear();

 private:
  struct Entry {
    std::uint64_t version = 0;
    std::shared_ptr<const db::QueryResult> rows;
  };
  using EntryMap = std::unordered_map<std::string, Entry>;
  [[nodiscard]] static std::string key(const std::string& fingerprint,
                                       std::size_t partition);

  mutable std::mutex mutex_;
  EntryMap entries_;
  EntryMap statement_entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t dirty_ = 0;
  std::uint64_t statement_hits_ = 0;
  std::uint64_t statement_misses_ = 0;
};

}  // namespace kojak::cosy

#endif  // KOJAK_COSY_SHARD_CACHE_HPP
