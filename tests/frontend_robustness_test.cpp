// Robustness property tests for both front ends: randomly mutated sources
// must either parse or fail with a *clean* diagnostic (ParseError/SemaError
// with a position) — never crash, hang, or corrupt state. The repro note on
// this paper flags "parsing awkward"; these sweeps are the guard rail.

#include <gtest/gtest.h>

#include <cmath>

#include "asl/parser.hpp"
#include "asl/sema.hpp"
#include "cosy/specs.hpp"
#include "db/sql/parser.hpp"
#include "db/sql/render.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace asl = kojak::asl;
namespace cosy = kojak::cosy;
namespace sql = kojak::db::sql;
using kojak::support::Error;
using kojak::support::Rng;

namespace {

/// Applies `count` random single-character edits (delete / duplicate /
/// replace with a character drawn from the language's alphabet).
std::string mutate(std::string text, Rng& rng, int count,
                   std::string_view alphabet) {
  for (int i = 0; i < count && !text.empty(); ++i) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        text.erase(pos, 1);
        break;
      case 1:
        text.insert(pos, 1, text[pos]);
        break;
      default:
        text[pos] = alphabet[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(alphabet.size()) - 1))];
        break;
    }
  }
  return text;
}

/// The nodes render_select_sql documents as having no text form: alias
/// references and non-finite literals.
bool has_unrenderable_node(const sql::Expr& e);

bool has_unrenderable_node(const sql::SelectStmt& s) {
  bool found = false;
  const auto visit = [&](const sql::ExprPtr& e) {
    if (e && has_unrenderable_node(*e)) found = true;
  };
  for (const auto& cte : s.ctes) found |= has_unrenderable_node(*cte.select);
  for (const auto& item : s.items) visit(item.expr);
  for (const auto& join : s.joins) visit(join.on);
  visit(s.where);
  for (const auto& g : s.group_by) visit(g);
  visit(s.having);
  for (const auto& key : s.order_by) visit(key.expr);
  return found;
}

bool has_unrenderable_node(const sql::Expr& e) {
  if (e.kind == sql::Expr::Kind::kAliasRef) return true;
  if (e.kind == sql::Expr::Kind::kLiteral &&
      e.literal.type() == kojak::db::ValueType::kDouble &&
      !std::isfinite(e.literal.as_double())) {
    return true;
  }
  if (e.lhs && has_unrenderable_node(*e.lhs)) return true;
  if (e.rhs && has_unrenderable_node(*e.rhs)) return true;
  for (const auto& arg : e.args) {
    if (has_unrenderable_node(*arg)) return true;
  }
  return e.subquery && has_unrenderable_node(*e.subquery);
}

constexpr std::string_view kAslAlphabet =
    "abcxyzRT09_.;:,(){}<>=+-*/\"' \n";
constexpr std::string_view kSqlAlphabet =
    "abcxyzT09_.;:,()*<>=+-/'% \n";

}  // namespace

class AslMutation : public ::testing::TestWithParam<int> {};

TEST_P(AslMutation, NeverCrashesOnMutatedSpecs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::string base = kojak::support::cat(
      cosy::cosy_model_source(), "\n", cosy::cosy_properties_source());
  int parsed_ok = 0;
  int rejected = 0;
  for (int round = 0; round < 40; ++round) {
    const std::string source =
        mutate(base, rng, 1 + round % 8, kAslAlphabet);
    try {
      const asl::ParseResult result = asl::parse_spec(source);
      if (result.ok()) {
        ++parsed_ok;
        // Whatever parsed must also survive sema (cleanly) and printing.
        try {
          asl::ast::SpecFile copy = asl::parse_spec_or_throw(source);
          (void)asl::analyze(std::move(copy));
        } catch (const Error&) {
          // semantic rejection is fine
        }
      } else {
        ++rejected;
        EXPECT_GT(result.diags.error_count(), 0u);
        // Every diagnostic carries a plausible position.
        for (const auto& diag : result.diags.diagnostics()) {
          EXPECT_GE(diag.loc.line, 1u);
        }
      }
    } catch (const Error&) {
      ++rejected;  // lexer-level rejection is equally acceptable
    }
  }
  // The sweep must exercise both outcomes.
  EXPECT_GT(parsed_ok + rejected, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AslMutation, ::testing::Range(1, 7));

class SqlMutation : public ::testing::TestWithParam<int> {};

TEST_P(SqlMutation, NeverCrashesOnMutatedStatements) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::string base =
      "SELECT r.Name, SUM(t.Incl) AS s FROM Region r "
      "JOIN Region_TotTimes j ON j.owner = r.id "
      "JOIN TotalTiming t ON t.id = j.member "
      "WHERE t.Run = 3 AND r.Kind LIKE 'L%' "
      "GROUP BY r.Name HAVING COUNT(*) > 1 ORDER BY s DESC LIMIT 10";
  int rejected = 0;
  int round_tripped = 0;
  for (int round = 0; round < 120; ++round) {
    const std::string source = mutate(base, rng, 1 + round % 6, kSqlAlphabet);
    std::vector<sql::Statement> statements;
    try {
      statements = sql::parse_sql(source);
    } catch (const Error&) {
      ++rejected;
      continue;
    }
    // Every SELECT that parses renders to text that parses back to the
    // same tree, unless it holds a node with no text form.
    for (const sql::Statement& statement : statements) {
      const auto* select = std::get_if<sql::SelectStmt>(&statement);
      if (select == nullptr) continue;
      SCOPED_TRACE(source);
      std::string text;
      std::vector<std::size_t> order;
      if (!sql::render_select_sql(*select, text, order)) {
        EXPECT_TRUE(has_unrenderable_node(*select));
        continue;
      }
      const sql::Statement reparsed = sql::parse_single(text);
      ASSERT_TRUE(std::holds_alternative<sql::SelectStmt>(reparsed)) << text;
      EXPECT_EQ(sql::structural_key(std::get<sql::SelectStmt>(reparsed)),
                sql::structural_key(*select))
          << text;
      ++round_tripped;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(round_tripped, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlMutation, ::testing::Range(1, 7));

TEST(AslRecovery, DiagnosticsPointIntoTheSource) {
  // A targeted broken spec: the rendered diagnostics must carry the caret
  // into the right line.
  const char* source =
      "class Ok { int X; }\n"
      "Property Broken(Region r) {\n"
      "  CONDITION r.X > 0;\n"  // missing ':'
      "  CONFIDENCE: 1; SEVERITY: 1;\n"
      "};\n";
  const asl::ParseResult result = asl::parse_spec(source);
  ASSERT_FALSE(result.ok());
  const std::string rendered = result.diags.render(source);
  EXPECT_NE(rendered.find("3:"), std::string::npos);
  EXPECT_NE(rendered.find("^"), std::string::npos);
}

TEST(AslRecovery, KeepsGoodDeclarationsAroundBadOnes) {
  // Shuffle a set of declarations with one broken each time: the good ones
  // must always survive recovery.
  Rng rng(7);
  const std::vector<std::string> good = {
      "class A { int X; }",
      "class B { float Y; }",
      "enum E { M1, M2 };",
      "const float T = 0.5;",
      "Property P(A a) { CONDITION: a.X > 0; CONFIDENCE: 1; SEVERITY: 1; };",
  };
  for (int round = 0; round < 20; ++round) {
    std::vector<std::string> decls = good;
    decls.insert(decls.begin() + rng.uniform_int(0, 4),
                 "Property Broken(A a) { CONDITION a.X; };");
    std::string source;
    for (const auto& decl : decls) source += decl + "\n";
    const asl::ParseResult result = asl::parse_spec(source);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.spec.classes.size(), 2u) << source;
    EXPECT_EQ(result.spec.enums.size(), 1u);
    EXPECT_EQ(result.spec.constants.size(), 1u);
    EXPECT_EQ(result.spec.properties.size(), 1u);
  }
}
