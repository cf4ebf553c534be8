#ifndef KOJAK_ASL_AST_HPP
#define KOJAK_ASL_AST_HPP

#include <memory>
#include <string>
#include <vector>

#include "asl/types.hpp"
#include "support/source_location.hpp"

namespace kojak::asl::ast {

// ---------------------------------------------------------------------------
// Expressions

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class BinOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};
enum class UnOp : std::uint8_t { kNeg, kNot };

/// Builtin aggregate kinds of the WHERE-binder form:
///   MIN(s.Run.NoPe WHERE s IN r.TotTimes [AND pred ...])
enum class AggKind : std::uint8_t { kMin, kMax, kSum, kAvg, kCount };

[[nodiscard]] std::string_view to_string(BinOp op);
[[nodiscard]] std::string_view to_string(AggKind kind);

struct Expr {
  enum class Kind : std::uint8_t {
    kIntLit,
    kFloatLit,
    kBoolLit,
    kStringLit,
    kNullLit,
    kIdent,          // parameter, LET binding, enum member, or constant
    kMember,         // base.attr
    kCall,           // user-defined specification function
    kUnary,
    kBinary,
    kComprehension,  // { binder IN set WITH pred }
    kAggregate,      // AGG(value WHERE binder IN set [AND pred]) — binder form
    kUnique,         // UNIQUE(set)
    kExists,         // EXISTS(set)
    kSize,           // SIZE(set) / COUNT(set)
  };

  Kind kind = Kind::kNullLit;
  support::SourceLoc loc;

  std::int64_t int_value = 0;
  double float_value = 0.0;
  bool bool_value = false;
  std::string string_value;

  std::string name;   // kIdent / kMember attr / kCall callee / binder name
  ExprPtr base;       // kMember base; kComprehension/kAggregate set; kUnique/kExists/kSize arg
  ExprPtr lhs;
  ExprPtr rhs;
  std::vector<ExprPtr> args;  // kCall arguments

  UnOp un_op = UnOp::kNeg;
  BinOp bin_op = BinOp::kAdd;

  AggKind agg_kind = AggKind::kMin;
  ExprPtr agg_value;  // value expression of the aggregate (null for COUNT form)
  ExprPtr filter;     // WITH predicate / aggregate AND-filter (may be null)

  Type type;  // checked type, recorded by sema (kError until analyzed)

  [[nodiscard]] ExprPtr clone() const;
};

[[nodiscard]] ExprPtr make_expr(Expr::Kind kind, support::SourceLoc loc);

// ---------------------------------------------------------------------------
// Declarations

/// A syntactic type name: `int`, `float`, `bool`, `String`, `DateTime`,
/// a class/enum name, or `setof <name>`.
struct TypeName {
  std::string name;
  bool is_set = false;
  support::SourceLoc loc;

  [[nodiscard]] std::string to_string() const {
    return is_set ? "setof " + name : name;
  }
};

struct AttrDecl {
  TypeName type;
  std::string name;
  support::SourceLoc loc;
};

struct ClassDecl {
  std::string name;
  std::string base;  // empty when the class has no superclass
  std::vector<AttrDecl> attrs;
  support::SourceLoc loc;
};

struct EnumDecl {
  std::string name;
  std::vector<std::string> members;
  support::SourceLoc loc;
};

struct ParamDecl {
  TypeName type;
  std::string name;
  support::SourceLoc loc;
};

/// Specification function: `float Duration(Region r, TestRun t) = expr;`
struct FunctionDecl {
  TypeName return_type;
  std::string name;
  std::vector<ParamDecl> params;
  ExprPtr body;
  support::SourceLoc loc;
};

/// Tool- or user-defined constant: `const float ImbalanceThreshold = 0.25;`
struct ConstDecl {
  TypeName type;
  std::string name;
  ExprPtr value;
  support::SourceLoc loc;
};

struct LetDef {
  TypeName type;
  std::string name;
  ExprPtr init;
  support::SourceLoc loc;
};

/// One condition of a property, optionally labelled: `(c1) expr`.
struct Condition {
  std::string id;  // empty when unlabelled
  ExprPtr pred;
  support::SourceLoc loc;
};

/// One confidence/severity arm, optionally guarded: `(c1) -> expr`.
struct GuardedExpr {
  std::string guard;  // condition id; empty when unguarded
  ExprPtr expr;
  support::SourceLoc loc;
};

struct PropertyDecl {
  std::string name;
  std::vector<ParamDecl> params;
  std::vector<LetDef> lets;
  std::vector<Condition> conditions;      // joined by OR (Figure 1)
  std::vector<GuardedExpr> confidence;    // singleton unless spec-level MAX
  bool confidence_is_max = false;
  std::vector<GuardedExpr> severity;
  bool severity_is_max = false;
  support::SourceLoc loc;
};

/// A parsed specification document (data model and/or property sections).
struct SpecFile {
  std::vector<ClassDecl> classes;
  std::vector<EnumDecl> enums;
  std::vector<FunctionDecl> functions;
  std::vector<ConstDecl> constants;
  std::vector<PropertyDecl> properties;
};

}  // namespace kojak::asl::ast

#endif  // KOJAK_ASL_AST_HPP
