#ifndef KOJAK_COSY_EVAL_STATS_HPP
#define KOJAK_COSY_EVAL_STATS_HPP

#include <cstdint>

namespace kojak::cosy {

/// Evaluator-side accounting of one analysis: what an SqlEvaluator counts
/// and an EvalBackend reports (mirrors the counters AnalysisReport reports).
struct EvalStats {
  std::uint64_t sql_queries = 0;
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  /// sql-whole-condition only: contexts re-evaluated site-by-site because
  /// the single-statement path did not apply.
  std::uint64_t whole_fallbacks = 0;

  EvalStats& operator+=(const EvalStats& other) noexcept {
    sql_queries += other.sql_queries;
    plan_cache_hits += other.plan_cache_hits;
    plan_cache_misses += other.plan_cache_misses;
    whole_fallbacks += other.whole_fallbacks;
    return *this;
  }
};

}  // namespace kojak::cosy

#endif  // KOJAK_COSY_EVAL_STATS_HPP
