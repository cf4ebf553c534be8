#include "cosy/shard_cache.hpp"

#include "support/str.hpp"

namespace kojak::cosy {

std::string ShardResultCache::key(const std::string& fingerprint,
                                  std::size_t partition) {
  return support::cat(fingerprint, "#p", partition);
}

ShardResultCache::Probe ShardResultCache::probe(const std::string& fingerprint,
                                                std::size_t partition,
                                                std::uint64_t version) {
  const std::string k = key(fingerprint, partition);
  std::lock_guard lock(mutex_);
  auto it = entries_.find(k);
  if (it != entries_.end() && it->second.version == version) {
    ++hits_;
    return {it->second.rows, false};
  }
  ++misses_;
  const bool stale = it != entries_.end();
  if (stale) ++dirty_;
  return {nullptr, stale};
}

std::shared_ptr<const db::QueryResult> ShardResultCache::store(
    const std::string& fingerprint, std::size_t partition,
    std::uint64_t version, db::QueryResult rows) {
  const std::string k = key(fingerprint, partition);
  auto shared = std::make_shared<const db::QueryResult>(std::move(rows));
  std::lock_guard lock(mutex_);
  entries_.insert_or_assign(k, Entry{version, shared});
  return shared;
}

std::shared_ptr<const db::QueryResult> ShardResultCache::probe_statement(
    const std::string& fingerprint, std::uint64_t version) {
  std::lock_guard lock(mutex_);
  auto it = statement_entries_.find(fingerprint);
  if (it != statement_entries_.end() && it->second.version == version) {
    ++statement_hits_;
    return it->second.rows;
  }
  ++statement_misses_;
  return nullptr;
}

std::shared_ptr<const db::QueryResult> ShardResultCache::store_statement(
    const std::string& fingerprint, std::uint64_t version,
    db::QueryResult rows) {
  auto shared = std::make_shared<const db::QueryResult>(std::move(rows));
  std::lock_guard lock(mutex_);
  statement_entries_.insert_or_assign(fingerprint, Entry{version, shared});
  return shared;
}

ShardResultCache::Stats ShardResultCache::stats() const {
  std::lock_guard lock(mutex_);
  return {hits_,
          misses_,
          dirty_,
          entries_.size(),
          statement_hits_,
          statement_misses_,
          statement_entries_.size()};
}

void ShardResultCache::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
  statement_entries_.clear();
}

}  // namespace kojak::cosy
