#ifndef KOJAK_DB_SQL_RENDER_HPP
#define KOJAK_DB_SQL_RENDER_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "db/sql/ast.hpp"

namespace kojak::db::sql {

/// Renders one SELECT (with its WITH clause) to executable SQL text with
/// `?` placeholders, recording the param_index of each placeholder in text
/// order. Query compilers build trees and render them; the shard-result
/// cache keys each partition-pinned CTE on its body's text. Returns false
/// for a node with no text form (an alias reference, which only the binder
/// creates, or a non-finite literal); otherwise the text parses back to a
/// tree with the same structural_key once placeholders are numbered in text
/// order.
[[nodiscard]] bool render_select_sql(const SelectStmt& stmt, std::string& out,
                                     std::vector<std::size_t>& param_order);

/// Renumbers the `?` placeholders of `stmt` 0, 1, ... in text order — the
/// numbering a parse of its text assigns — and returns each placeholder's
/// previous param_index in that order. With `text`, the same walk renders
/// it (left empty, and the numbering partial, when render_select_sql would
/// fail).
std::vector<std::size_t> renumber_params(SelectStmt& stmt,
                                         std::string* text = nullptr);

/// Appends an unambiguous key of the tree to `out`: its rendering with
/// every node spelled (placeholders with their index, alias references,
/// non-finite literals), so equal keys mean equal trees. The executor's
/// subquery memo and the whole-condition CSE pass match subqueries by it.
void structural_key(const Expr& e, std::string& out);
void structural_key(const SelectStmt& s, std::string& out);
[[nodiscard]] std::string structural_key(const SelectStmt& s);

}  // namespace kojak::db::sql

#endif  // KOJAK_DB_SQL_RENDER_HPP
