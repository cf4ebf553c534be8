#include "asl/interp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"
#include "support/str.hpp"

namespace kojak::asl {

using ast::Expr;
using support::EvalError;

namespace {

RtValue numeric_result(double value, bool as_int) {
  if (as_int) return RtValue::of_int(static_cast<std::int64_t>(value));
  return RtValue::of_float(value);
}

int compare_ordered(const RtValue& a, const RtValue& b) {
  if (a.is_numeric() && b.is_numeric()) {
    const double x = a.as_float();
    const double y = b.as_float();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.is_string() && b.is_string()) {
    const int c = a.as_string().compare(b.as_string());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  throw EvalError(support::cat("cannot order ", a.to_display(), " and ",
                               b.to_display()));
}

/// The in-memory store's data: attribute slots of the object's own class.
/// It keeps no state, so interpreters on several threads may share it.
class StoreData final : public DataSource {
 public:
  StoreData(const Model& model, const ObjectStore& store)
      : model_(&model), store_(&store) {}

  RtValue read_member(ObjectId id, const Expr& member) override {
    const Object& obj = store_->object(id);
    const ClassInfo& cls = model_->class_info(obj.class_id);
    const auto index = cls.find_attr(member.name);
    if (!index) {
      throw EvalError(support::cat("class ", cls.name, " has no attribute '",
                                   member.name, "'"));
    }
    const RtValue& value = obj.attrs[*index];
    // A never-populated setof attribute reads as the empty set.
    if (value.is_null() && cls.attrs[*index].type.kind == TypeKind::kSet) {
      static const SetPtr kEmpty = std::make_shared<std::vector<ObjectId>>();
      return RtValue::of_set(kEmpty);
    }
    return value;
  }

 private:
  const Model* model_;
  const ObjectStore* store_;
};

}  // namespace

Interpreter::Interpreter(const Model& model, const ObjectStore& store)
    : model_(&model),
      own_data_(std::make_shared<StoreData>(model, store)),
      data_(own_data_.get()) {}

std::string condition_label(const PropertyInfo& prop, std::size_t i) {
  const std::string& id = prop.conditions[i].id;
  return id.empty() ? support::cat("#", i + 1) : id;
}

PropertyResult decide_property(
    const PropertyInfo& prop, const std::function<bool(std::size_t)>& condition,
    const std::function<double(bool, std::size_t)>& arm) {
  PropertyResult result;
  std::vector<bool> truth;
  truth.reserve(prop.conditions.size());
  for (std::size_t i = 0; i < prop.conditions.size(); ++i) {
    truth.push_back(condition(i));
    if (truth.back() && result.matched_condition.empty()) {
      result.matched_condition = condition_label(prop, i);
    }
  }
  if (result.matched_condition.empty()) return result;
  result.status = PropertyResult::Status::kHolds;

  const auto held = [&](const std::string& guard) {
    for (std::size_t i = 0; i < truth.size(); ++i) {
      if (prop.conditions[i].id == guard) return static_cast<bool>(truth[i]);
    }
    return false;
  };
  const auto max_arm = [&](bool severity) {
    const std::vector<GuardedInfo>& arms =
        severity ? prop.severity : prop.confidence;
    double best = -std::numeric_limits<double>::infinity();
    bool any = false;
    for (std::size_t i = 0; i < arms.size(); ++i) {
      if (!arms[i].guard.empty() && !held(arms[i].guard)) continue;
      best = std::max(best, arm(severity, i));
      any = true;
    }
    return any ? best : 0.0;
  };
  result.confidence = std::clamp(max_arm(false), 0.0, 1.0);
  result.severity = max_arm(true);
  return result;
}

bool Interpreter::truthy(const RtValue& value) { return value.as_bool(); }

RtValue Interpreter::call(const FunctionInfo& fn, std::vector<RtValue> args) const {
  if (args.size() != fn.params.size()) {
    throw EvalError(support::cat("function ", fn.name, " expects ",
                                 fn.params.size(), " arguments, got ",
                                 args.size()));
  }
  Env env;
  for (std::size_t i = 0; i < args.size(); ++i) {
    env.push(fn.params[i].first, std::move(args[i]));
  }
  return eval(*fn.body, env);
}

RtValue Interpreter::eval_aggregate(const Expr& e, Env& env) const {
  const RtValue set_value = eval(*e.base, env);
  const std::vector<ObjectId>& members = set_value.as_set();

  double sum = 0.0;
  double best = 0.0;
  std::int64_t best_int = 0;
  bool best_is_int = false;
  std::size_t count = 0;
  bool first = true;

  for (const ObjectId member : members) {
    env.push(e.name, RtValue::of_object(member));
    bool keep = true;
    if (e.filter) keep = truthy(eval(*e.filter, env));
    if (keep) {
      if (e.agg_kind == ast::AggKind::kCount) {
        ++count;
      } else {
        const RtValue v = eval(*e.agg_value, env);
        const double x = v.as_float();
        sum += x;
        ++count;
        const bool better = first || (e.agg_kind == ast::AggKind::kMin
                                          ? x < best
                                          : x > best);
        if ((e.agg_kind == ast::AggKind::kMin ||
             e.agg_kind == ast::AggKind::kMax) &&
            better) {
          best = x;
          best_int = v.is_int() ? v.as_int() : 0;
          best_is_int = v.is_int();
        }
        first = false;
      }
    }
    env.pop();
  }

  switch (e.agg_kind) {
    case ast::AggKind::kCount:
      return RtValue::of_int(static_cast<std::int64_t>(count));
    case ast::AggKind::kSum:
      return RtValue::of_float(sum);
    case ast::AggKind::kAvg:
      if (count == 0) throw EvalError("AVG over an empty set");
      return RtValue::of_float(sum / static_cast<double>(count));
    case ast::AggKind::kMin:
    case ast::AggKind::kMax:
      if (count == 0) {
        throw EvalError(support::cat(ast::to_string(e.agg_kind),
                                     " over an empty set"));
      }
      return best_is_int ? RtValue::of_int(best_int) : RtValue::of_float(best);
  }
  throw EvalError("unknown aggregate kind");
}

RtValue Interpreter::eval_set(const Expr& e, Env& env) const {
  using Kind = Expr::Kind;
  // Identity form: MAX(scalar) — the degenerate list-MAX over one value.
  if (e.kind == Kind::kAggregate && !e.base) return eval(*e.agg_value, env);
  if (std::optional<RtValue> answered = data_->eval_set(e, env)) {
    return std::move(*answered);
  }
  if (e.kind == Kind::kAggregate) return eval_aggregate(e, env);

  const RtValue set_value = eval(*e.base, env);
  const std::vector<ObjectId>& members = set_value.as_set();
  switch (e.kind) {
    case Kind::kComprehension: {
      auto result = std::make_shared<std::vector<ObjectId>>();
      result->reserve(members.size());
      for (const ObjectId member : members) {
        bool keep = true;
        if (e.filter) {
          env.push(e.name, RtValue::of_object(member));
          keep = truthy(eval(*e.filter, env));
          env.pop();
        }
        if (keep) result->push_back(member);
      }
      return RtValue::of_set(std::move(result));
    }
    case Kind::kUnique:
      if (members.size() != 1) {
        throw EvalError(support::cat("UNIQUE over a set of size ",
                                     members.size()));
      }
      return RtValue::of_object(members.front());
    case Kind::kExists:
      return RtValue::of_bool(!members.empty());
    default:  // kSize
      return RtValue::of_int(static_cast<std::int64_t>(members.size()));
  }
}

RtValue Interpreter::eval(const Expr& e, Env& env) const {
  using Kind = Expr::Kind;
  switch (e.kind) {
    case Kind::kIntLit: return RtValue::of_int(e.int_value);
    case Kind::kFloatLit: return RtValue::of_float(e.float_value);
    case Kind::kBoolLit: return RtValue::of_bool(e.bool_value);
    case Kind::kStringLit: return RtValue::of_string(e.string_value);
    case Kind::kNullLit: return RtValue::null();

    case Kind::kIdent: {
      if (const RtValue* var = env.find(e.name)) return *var;
      if (const ConstInfo* cst = model_->find_constant(e.name)) {
        Env empty;
        return eval(*cst->value, empty);
      }
      if (const auto member = model_->find_enum_member(e.name)) {
        return RtValue::of_enum(member->first, member->second);
      }
      throw EvalError(support::cat("unknown name '", e.name, "'"));
    }

    case Kind::kMember: {
      const RtValue base = eval(*e.base, env);
      const ObjectId id = base.as_object();
      if (id == kNullObject) {
        throw EvalError(support::cat("attribute access '.", e.name,
                                     "' on null object"));
      }
      return data_->read_member(id, e);
    }

    case Kind::kCall: {
      const FunctionInfo* fn = model_->find_function(e.name);
      if (fn == nullptr) {
        throw EvalError(support::cat("unknown function '", e.name, "'"));
      }
      std::vector<RtValue> args;
      args.reserve(e.args.size());
      for (const auto& arg : e.args) args.push_back(eval(*arg, env));
      return call(*fn, std::move(args));
    }

    case Kind::kUnary: {
      const RtValue operand = eval(*e.lhs, env);
      if (e.un_op == ast::UnOp::kNot) return RtValue::of_bool(!operand.as_bool());
      if (operand.is_int()) return RtValue::of_int(-operand.as_int());
      return RtValue::of_float(-operand.as_float());
    }

    case Kind::kBinary: {
      using ast::BinOp;
      switch (e.bin_op) {
        case BinOp::kAnd: {
          const RtValue lhs = eval(*e.lhs, env);
          if (!lhs.as_bool()) return RtValue::of_bool(false);
          return RtValue::of_bool(eval(*e.rhs, env).as_bool());
        }
        case BinOp::kOr: {
          const RtValue lhs = eval(*e.lhs, env);
          if (lhs.as_bool()) return RtValue::of_bool(true);
          return RtValue::of_bool(eval(*e.rhs, env).as_bool());
        }
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul: {
          const RtValue lhs = eval(*e.lhs, env);
          const RtValue rhs = eval(*e.rhs, env);
          const bool as_int = lhs.is_int() && rhs.is_int();
          const double x = lhs.as_float();
          const double y = rhs.as_float();
          switch (e.bin_op) {
            case BinOp::kAdd: return numeric_result(x + y, as_int);
            case BinOp::kSub: return numeric_result(x - y, as_int);
            default: return numeric_result(x * y, as_int);
          }
        }
        case BinOp::kDiv: {
          const double x = eval(*e.lhs, env).as_float();
          const double y = eval(*e.rhs, env).as_float();
          if (y == 0.0) throw EvalError("division by zero");
          return RtValue::of_float(x / y);
        }
        case BinOp::kEq:
          return RtValue::of_bool(
              RtValue::equals(eval(*e.lhs, env), eval(*e.rhs, env)));
        case BinOp::kNe:
          return RtValue::of_bool(
              !RtValue::equals(eval(*e.lhs, env), eval(*e.rhs, env)));
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe: {
          const int c = compare_ordered(eval(*e.lhs, env), eval(*e.rhs, env));
          switch (e.bin_op) {
            case BinOp::kLt: return RtValue::of_bool(c < 0);
            case BinOp::kLe: return RtValue::of_bool(c <= 0);
            case BinOp::kGt: return RtValue::of_bool(c > 0);
            default: return RtValue::of_bool(c >= 0);
          }
        }
      }
      throw EvalError("unknown binary operator");
    }

    case Kind::kComprehension:
    case Kind::kAggregate:
    case Kind::kUnique:
    case Kind::kExists:
    case Kind::kSize:
      return eval_set(e, env);
  }
  throw EvalError("unhandled expression kind");
}

PropertyResult Interpreter::evaluate_property(const PropertyInfo& prop,
                                              std::vector<RtValue> args) const {
  if (args.size() != prop.params.size()) {
    throw EvalError(support::cat("property ", prop.name, " expects ",
                                 prop.params.size(), " arguments, got ",
                                 args.size()));
  }
  Env env;
  for (std::size_t i = 0; i < args.size(); ++i) {
    env.push(prop.params[i].first, std::move(args[i]));
  }

  try {
    for (const LetInfo& let : prop.lets) {
      env.push(let.name, eval(*let.init, env));
    }
    return decide_property(
        prop,
        [&](std::size_t i) {
          return truthy(eval(*prop.conditions[i].pred, env));
        },
        [&](bool severity, std::size_t i) {
          const std::vector<GuardedInfo>& arms =
              severity ? prop.severity : prop.confidence;
          return eval(*arms[i].expr, env).as_float();
        });
  } catch (const support::CompileLimit&) {
    throw;
  } catch (const EvalError& error) {
    return PropertyResult::not_applicable(error.what());
  }
}

}  // namespace kojak::asl
