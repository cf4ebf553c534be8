#include <gtest/gtest.h>

#include "asl/sema.hpp"
#include "support/error.hpp"

namespace asl = kojak::asl;
using asl::TypeKind;
using kojak::support::SemaError;

namespace {

constexpr const char* kModel = R"(
enum Color { Red, Green, Blue };
class Leaf { int N; float X; String S; Color C; }
class Node { String Name; Node Next; setof Leaf Leaves; }
)";

asl::Model analyze_ok(std::string_view extra) {
  return asl::load_model({kModel, extra});
}

void expect_sema_error(std::string_view extra, std::string_view needle) {
  try {
    (void)asl::load_model({kModel, extra});
    FAIL() << "expected SemaError for: " << extra;
  } catch (const SemaError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual: " << e.what();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Declarations

TEST(Sema, ModelShape) {
  const asl::Model model = analyze_ok("");
  ASSERT_TRUE(model.find_class("Node").has_value());
  const auto& node = model.class_info(*model.find_class("Node"));
  ASSERT_EQ(node.attrs.size(), 3u);
  EXPECT_EQ(node.attrs[1].type.kind, TypeKind::kClass);
  EXPECT_EQ(node.attrs[2].type.kind, TypeKind::kSet);
  EXPECT_EQ(model.type_name(node.attrs[2].type), "setof Leaf");
  ASSERT_TRUE(model.find_enum("Color").has_value());
  const auto member = model.find_enum_member("Green");
  ASSERT_TRUE(member.has_value());
  EXPECT_EQ(member->second, 1);
}

TEST(Sema, InheritanceFlattensAttributes) {
  const asl::Model model = analyze_ok("class Special extends Leaf { float Y; }");
  const auto id = model.find_class("Special");
  ASSERT_TRUE(id.has_value());
  const auto& cls = model.class_info(*id);
  ASSERT_EQ(cls.attrs.size(), 5u);  // N, X, S, C inherited + Y
  EXPECT_EQ(cls.attrs[0].name, "N");
  EXPECT_EQ(cls.attrs[4].name, "Y");
  EXPECT_EQ(cls.own_attr_begin, 4u);
  EXPECT_TRUE(model.is_subclass_of(*id, *model.find_class("Leaf")));
  EXPECT_FALSE(model.is_subclass_of(*model.find_class("Leaf"), *id));
}

TEST(Sema, Functions) {
  const asl::Model model = analyze_ok(
      "float Mean(Node n) = SUM(l.X WHERE l IN n.Leaves) / SIZE(n.Leaves);");
  const asl::FunctionInfo* fn = model.find_function("Mean");
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->return_type.kind, TypeKind::kFloat);
  ASSERT_EQ(fn->params.size(), 1u);
}

TEST(Sema, Properties) {
  const asl::Model model = analyze_ok(
      "Property P(Node n) {\n"
      "  LET float S = SUM(l.X WHERE l IN n.Leaves)\n"
      "  IN CONDITION: (big) S > 10 OR S > 1;\n"
      "  CONFIDENCE: MAX((big) -> 1, 0.5);\n"
      "  SEVERITY: S;\n"
      "};");
  const asl::PropertyInfo* prop = model.find_property("P");
  ASSERT_NE(prop, nullptr);
  EXPECT_EQ(prop->lets.size(), 1u);
  EXPECT_EQ(prop->conditions.size(), 2u);
  EXPECT_EQ(prop->confidence.size(), 2u);
}

// ---------------------------------------------------------------------------
// Error cases

TEST(SemaErrors, UnknownType) {
  expect_sema_error("class A { Mystery M; }", "unknown type 'Mystery'");
}

TEST(SemaErrors, DuplicateClass) {
  expect_sema_error("class Leaf { int Z; }", "duplicate type name");
}

TEST(SemaErrors, DuplicateAttribute) {
  expect_sema_error("class A { int X; float X; }", "duplicate attribute");
}

TEST(SemaErrors, SetofScalar) {
  expect_sema_error("class A { setof int Xs; }", "element type must be a class");
}

TEST(SemaErrors, UnknownBaseClass) {
  expect_sema_error("class A extends Nope { int X; }", "unknown base class");
}

TEST(SemaErrors, InheritanceCycle) {
  expect_sema_error("class A extends B { int X; } class B extends A { int Y; }",
                    "inheritance cycle");
}

TEST(SemaErrors, DuplicateEnumMemberAcrossEnums) {
  expect_sema_error("enum Other { Red };", "already defined");
}

TEST(SemaErrors, UnknownAttribute) {
  expect_sema_error("float F(Node n) = n.Nope;", "has no attribute 'Nope'");
}

TEST(SemaErrors, MemberOnScalar) {
  expect_sema_error("float F(Leaf l) = l.N.X;", "attribute access");
}

TEST(SemaErrors, UnknownName) {
  expect_sema_error("float F(Node n) = Undefined;", "unknown name");
}

TEST(SemaErrors, UnknownFunction) {
  expect_sema_error("float F(Node n) = Nope(n);", "unknown function");
}

TEST(SemaErrors, WrongArgCount) {
  expect_sema_error(
      "float G(Leaf l) = l.X; float F(Leaf l) = G(l, l);", "expects 1 arguments");
}

TEST(SemaErrors, WrongArgType) {
  expect_sema_error("float G(Leaf l) = l.X; float F(Node n) = G(n);",
                    "cannot use Node");
}

TEST(SemaErrors, ReturnTypeMismatch) {
  expect_sema_error("int F(Leaf l) = l.X;", "cannot use float");
}

TEST(SemaErrors, ConditionMustBeBool) {
  expect_sema_error(
      "Property P(Node n) { CONDITION: SIZE(n.Leaves); CONFIDENCE: 1; "
      "SEVERITY: 1; };",
      "condition must be bool");
}

TEST(SemaErrors, SeverityMustBeNumeric) {
  expect_sema_error(
      "Property P(Node n) { CONDITION: true; CONFIDENCE: 1; "
      "SEVERITY: n.Name; };",
      "SEVERITY must be numeric");
}

TEST(SemaErrors, DuplicateConditionId) {
  expect_sema_error(
      "Property P(Node n) { CONDITION: (c) true OR (c) false; CONFIDENCE: 1; "
      "SEVERITY: 1; };",
      "duplicate condition id");
}

TEST(SemaErrors, GuardNamesUnknownCondition) {
  expect_sema_error(
      "Property P(Node n) { CONDITION: (c) true; "
      "CONFIDENCE: MAX((nope) -> 1, 0.5); SEVERITY: 1; };",
      "does not name a condition");
}

TEST(SemaErrors, ComprehensionOverNonSet) {
  expect_sema_error("float F(Node n) = SUM(x.X WHERE x IN n.Next);",
                    "must range over a set");
}

TEST(SemaErrors, AggregateValueMustBeNumeric) {
  expect_sema_error("float F(Node n) = SUM(l.S WHERE l IN n.Leaves);",
                    "aggregate value must be numeric");
}

TEST(SemaErrors, BoolOperatorsNeedBools) {
  expect_sema_error("bool F(Leaf l) = l.N AND true;", "requires bool operands");
}

TEST(SemaErrors, CompareIncompatible) {
  expect_sema_error("bool F(Leaf l) = l.S == l.N;", "cannot compare");
}

TEST(SemaErrors, CompareEnumWithInt) {
  expect_sema_error("bool F(Leaf l) = l.C == 1;", "cannot compare");
}

TEST(SemaErrors, OrderingOnEnums) {
  expect_sema_error("bool F(Leaf l) = l.C < l.C;", "ordering comparison");
}

TEST(SemaErrors, UniqueNeedsSet) {
  expect_sema_error("Leaf F(Node n) = UNIQUE(n.Next);", "UNIQUE requires a set");
}

TEST(SemaErrors, DuplicateProperty) {
  expect_sema_error(
      "Property P(Node n) { CONDITION: true; CONFIDENCE: 1; SEVERITY: 1; };"
      "Property P(Node n) { CONDITION: true; CONFIDENCE: 1; SEVERITY: 1; };",
      "duplicate property");
}

TEST(SemaErrors, MultipleErrorsReportedTogether) {
  try {
    (void)asl::load_model({kModel,
                           "class A { Mystery M; OtherMystery O; }"});
    FAIL();
  } catch (const SemaError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Mystery"), std::string::npos);
    EXPECT_NE(what.find("OtherMystery"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Type rules

TEST(SemaTypes, NumericPromotion) {
  // int / int is float (ASL division), int + int stays int.
  const asl::Model model = analyze_ok(
      "float F(Leaf l) = l.N / 2;\n"
      "int G(Leaf l) = l.N + 1;\n"
      "float H(Leaf l) = l.N + 0.5;\n");
  EXPECT_EQ(model.find_function("F")->return_type.kind, TypeKind::kFloat);
  EXPECT_EQ(model.find_function("G")->return_type.kind, TypeKind::kInt);
  EXPECT_EQ(model.find_function("H")->return_type.kind, TypeKind::kFloat);
}

TEST(SemaTypes, RecordsEachExpressionTypeOnTheAst) {
  // The evaluators read an object's class and a scalar's database mapping
  // from the checked AST, and a clone keeps them.
  const asl::Model model = analyze_ok(
      "int G(Leaf l) = l.N + 1;\n"
      "float H(Node n) = SIZE(n.Leaves) * 0.5;\n");
  const asl::ast::Expr& g = *model.find_function("G")->body;
  EXPECT_EQ(g.type.kind, TypeKind::kInt);
  EXPECT_EQ(g.lhs->base->type, asl::Type::class_of(*model.find_class("Leaf")));
  EXPECT_EQ(g.lhs->type.kind, TypeKind::kInt);
  const asl::ast::Expr& h = *model.find_function("H")->body;
  EXPECT_EQ(h.type.kind, TypeKind::kFloat);
  EXPECT_EQ(h.lhs->base->type,
            asl::Type::set_of(*model.find_class("Leaf")));
  EXPECT_EQ(h.clone()->lhs->base->type, h.lhs->base->type);
}

TEST(SemaTypes, NullComparableWithObjects) {
  (void)analyze_ok("bool F(Node n) = n.Next == null;");
}

TEST(SemaTypes, SubclassAssignable) {
  (void)asl::load_model(
      {kModel,
       "class Special extends Leaf { float Y; }\n"
       "float F(Leaf l) = l.X;\n"
       "float G(Special s) = F(s);\n"});
}

TEST(SemaTypes, AggregateResultTypes) {
  const asl::Model model = analyze_ok(
      "int MinN(Node n) = MIN(l.N WHERE l IN n.Leaves);\n"
      "float SumN(Node n) = SUM(l.N WHERE l IN n.Leaves);\n"
      "int CountBig(Node n) = COUNT(l WHERE l IN n.Leaves AND l.X > 1);\n");
  EXPECT_EQ(model.find_function("MinN")->return_type.kind, TypeKind::kInt);
  EXPECT_EQ(model.find_function("SumN")->return_type.kind, TypeKind::kFloat);
  EXPECT_EQ(model.find_function("CountBig")->return_type.kind, TypeKind::kInt);
}

TEST(SemaTypes, MergeSpecsAcrossDocuments) {
  // Model in one document, properties in another (the COSY layout).
  const asl::Model model = asl::load_model(
      {kModel, "float F(Leaf l) = l.X;",
       "Property P(Node n) { CONDITION: true; CONFIDENCE: 1; SEVERITY: 1; };"});
  EXPECT_NE(model.find_function("F"), nullptr);
  EXPECT_NE(model.find_property("P"), nullptr);
}
