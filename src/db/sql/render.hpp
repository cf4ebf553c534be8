#ifndef KOJAK_DB_SQL_RENDER_HPP
#define KOJAK_DB_SQL_RENDER_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "db/sql/ast.hpp"

namespace kojak::db::sql {

/// Renders one SELECT back to executable SQL text with `?` placeholders,
/// recording the absolute param_index of each placeholder in text order.
/// The shard-result cache keys each partition-pinned CTE on this text (its
/// fingerprint stem), so two bodies share cached rows exactly when they
/// render alike. Returns false when the statement contains a node the text
/// dialect cannot round-trip (nested CTEs, alias references, non-finite
/// literals) — the caller then leaves that CTE uncached.
[[nodiscard]] bool render_select_sql(const SelectStmt& stmt, std::string& out,
                                     std::vector<std::size_t>& param_order);

}  // namespace kojak::db::sql

#endif  // KOJAK_DB_SQL_RENDER_HPP
