#include "asl/sema.hpp"

#include <set>

#include "asl/pretty.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace kojak::asl {

using support::SemaError;
using support::SourceLoc;

// ---------------------------------------------------------------------------
// Model lookups

std::optional<std::uint32_t> Model::find_class(std::string_view name) const {
  const auto it = class_by_name_.find(name);
  if (it == class_by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint32_t> Model::find_enum(std::string_view name) const {
  const auto it = enum_by_name_.find(name);
  if (it == enum_by_name_.end()) return std::nullopt;
  return it->second;
}

const FunctionInfo* Model::find_function(std::string_view name) const {
  for (const FunctionInfo& fn : functions_) {
    if (fn.name == name) return &fn;
  }
  return nullptr;
}

const ConstInfo* Model::find_constant(std::string_view name) const {
  for (const ConstInfo& c : constants_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const PropertyInfo* Model::find_property(std::string_view name) const {
  for (const PropertyInfo& p : properties_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::optional<std::pair<std::uint32_t, std::int32_t>> Model::find_enum_member(
    std::string_view name) const {
  for (std::uint32_t e = 0; e < enums_.size(); ++e) {
    if (const auto ordinal = enums_[e].find_member(name)) {
      return std::make_pair(e, *ordinal);
    }
  }
  return std::nullopt;
}

bool Model::is_subclass_of(std::uint32_t derived, std::uint32_t base) const {
  while (true) {
    if (derived == base) return true;
    const auto& info = classes_.at(derived);
    if (!info.base) return false;
    derived = *info.base;
  }
}

std::uint64_t Model::fingerprint() const {
  // FNV-1a over a canonical rendering of everything the evaluators consult.
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::string_view text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    hash ^= 0xff;
    hash *= 1099511628211ull;
  };
  // Every record opens with a tag so flat name sequences cannot collide
  // across section boundaries (e.g. one enum {a, F, b} vs. two enums).
  for (const ClassInfo& cls : classes_) {
    mix("class");
    mix(cls.name);
    for (const AttrInfo& attr : cls.attrs) {
      mix(attr.name);
      mix(type_name(attr.type));
    }
  }
  for (const EnumInfo& e : enums_) {
    mix("enum");
    mix(e.name);
    for (const std::string& member : e.members) mix(member);
  }
  for (const ConstInfo& c : constants_) {
    mix("const");
    mix(c.name);
    mix(to_source(*c.value));
  }
  for (const FunctionInfo& fn : functions_) {
    mix("function");
    mix(fn.name);
    for (const auto& [name, type] : fn.params) {
      mix(name);
      mix(type_name(type));
    }
    mix(to_source(*fn.body));
  }
  for (const PropertyInfo& prop : properties_) {
    mix("property");
    mix(prop.name);
    for (const auto& [name, type] : prop.params) {
      mix(name);
      mix(type_name(type));
    }
    for (const LetInfo& let : prop.lets) {
      mix(let.name);
      mix(to_source(*let.init));
    }
    for (const ConditionInfo& cond : prop.conditions) {
      mix(cond.id);
      mix(to_source(*cond.pred));
    }
    for (const auto* arms : {&prop.confidence, &prop.severity}) {
      for (const GuardedInfo& arm : *arms) {
        mix(arm.guard);
        mix(to_source(*arm.expr));
      }
    }
  }
  return hash;
}

std::string Model::type_name(const Type& type) const {
  switch (type.kind) {
    case TypeKind::kError: return "<error>";
    case TypeKind::kInt: return "int";
    case TypeKind::kFloat: return "float";
    case TypeKind::kBool: return "bool";
    case TypeKind::kString: return "String";
    case TypeKind::kDateTime: return "DateTime";
    case TypeKind::kClass: return classes_.at(type.id).name;
    case TypeKind::kEnum: return enums_.at(type.id).name;
    case TypeKind::kSet: return "setof " + classes_.at(type.id).name;
    case TypeKind::kNullRef: return "null";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Semantic analysis

namespace {

struct Scope {
  std::vector<std::pair<std::string, Type>> vars;

  [[nodiscard]] const Type* find(std::string_view name) const {
    for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
      if (it->first == name) return &it->second;
    }
    return nullptr;
  }
};

}  // namespace

class SemaBuilder {
 public:
  explicit SemaBuilder(ast::SpecFile spec)
      : spec_(std::make_shared<ast::SpecFile>(std::move(spec))) {}

  Model build() {
    ast::SpecFile& spec = *spec_;
    register_names(spec);
    resolve_classes(spec);
    resolve_constants(spec);
    resolve_functions(spec);
    resolve_properties(spec);
    if (!errors_.empty()) {
      std::string message = "specification has semantic errors:";
      for (const auto& [loc, text] : errors_) {
        message += support::cat("\n  ", loc.to_string(), ": ", text);
      }
      throw SemaError(message, errors_.front().first);
    }
    model_.spec_ = std::move(spec_);
    return std::move(model_);
  }

 private:
  void error(SourceLoc loc, std::string message) {
    errors_.emplace_back(loc, std::move(message));
  }

  void register_names(const ast::SpecFile& spec) {
    for (const auto& cls : spec.classes) {
      if (is_builtin_type_name(cls.name) || model_.find_class(cls.name) ||
          model_.find_enum(cls.name)) {
        error(cls.loc, support::cat("duplicate type name '", cls.name, "'"));
        continue;
      }
      model_.class_by_name_.emplace(cls.name,
                                    static_cast<std::uint32_t>(model_.classes_.size()));
      model_.classes_.push_back({cls.name, std::nullopt, {}, 0});
    }
    for (const auto& en : spec.enums) {
      if (is_builtin_type_name(en.name) || model_.find_class(en.name) ||
          model_.find_enum(en.name)) {
        error(en.loc, support::cat("duplicate type name '", en.name, "'"));
        continue;
      }
      model_.enum_by_name_.emplace(en.name,
                                   static_cast<std::uint32_t>(model_.enums_.size()));
      EnumInfo info;
      info.name = en.name;
      std::set<std::string> seen;
      for (const std::string& member : en.members) {
        if (!seen.insert(member).second) {
          error(en.loc, support::cat("duplicate enum member '", member, "' in ",
                                     en.name));
          continue;
        }
        if (const auto other = model_.find_enum_member(member)) {
          error(en.loc,
                support::cat("enum member '", member, "' already defined in ",
                             model_.enums_[other->first].name,
                             " (members share one global namespace)"));
          continue;
        }
        info.members.push_back(member);
      }
      model_.enums_.push_back(std::move(info));
    }
  }

  [[nodiscard]] static bool is_builtin_type_name(std::string_view name) {
    return support::iequals(name, "int") || support::iequals(name, "float") ||
           support::iequals(name, "bool") || support::iequals(name, "string") ||
           support::iequals(name, "datetime");
  }

  Type resolve_type(const ast::TypeName& type) {
    if (type.is_set) {
      const auto cls = model_.find_class(type.name);
      if (!cls) {
        error(type.loc, support::cat("'setof ", type.name,
                                     "': element type must be a class"));
        return Type::error();
      }
      return Type::set_of(*cls);
    }
    if (support::iequals(type.name, "int")) return Type::of(TypeKind::kInt);
    if (support::iequals(type.name, "float")) return Type::of(TypeKind::kFloat);
    if (support::iequals(type.name, "bool")) return Type::of(TypeKind::kBool);
    if (support::iequals(type.name, "string")) return Type::of(TypeKind::kString);
    if (support::iequals(type.name, "datetime")) return Type::of(TypeKind::kDateTime);
    if (const auto cls = model_.find_class(type.name)) return Type::class_of(*cls);
    if (const auto en = model_.find_enum(type.name)) return Type::enum_of(*en);
    error(type.loc, support::cat("unknown type '", type.name, "'"));
    return Type::error();
  }

  void resolve_classes(const ast::SpecFile& spec) {
    // Bases first (and cycle detection), then flattened attributes.
    for (const auto& cls : spec.classes) {
      const auto id = model_.find_class(cls.name);
      if (!id) continue;  // duplicate, already reported
      if (cls.base.empty()) continue;
      const auto base = model_.find_class(cls.base);
      if (!base) {
        error(cls.loc, support::cat("unknown base class '", cls.base, "'"));
        continue;
      }
      model_.classes_[*id].base = *base;
    }
    // Cycle check.
    for (std::uint32_t id = 0; id < model_.classes_.size(); ++id) {
      std::uint32_t slow = id;
      std::set<std::uint32_t> seen{id};
      while (model_.classes_[slow].base) {
        slow = *model_.classes_[slow].base;
        if (!seen.insert(slow).second) {
          error({}, support::cat("inheritance cycle involving class '",
                                 model_.classes_[id].name, "'"));
          model_.classes_[id].base = std::nullopt;
          break;
        }
      }
    }
    // Flatten attributes in topological order (bases before derived).
    std::vector<bool> done(model_.classes_.size(), false);
    const auto flatten = [&](auto&& self, std::uint32_t id) -> void {
      if (done[id]) return;
      done[id] = true;
      ClassInfo& info = model_.classes_[id];
      if (info.base) {
        self(self, *info.base);
        info.attrs = model_.classes_[*info.base].attrs;
      }
      info.own_attr_begin = info.attrs.size();
      const ast::ClassDecl* decl = nullptr;
      for (const auto& cls : spec.classes) {
        if (cls.name == info.name) {
          decl = &cls;
          break;
        }
      }
      if (decl == nullptr) return;
      for (const auto& attr : decl->attrs) {
        if (info.find_attr(attr.name)) {
          error(attr.loc, support::cat("duplicate attribute '", attr.name,
                                       "' in class ", info.name));
          continue;
        }
        info.attrs.push_back({attr.name, resolve_type(attr.type)});
      }
    };
    for (std::uint32_t id = 0; id < model_.classes_.size(); ++id) {
      flatten(flatten, id);
    }
  }

  void resolve_constants(ast::SpecFile& spec) {
    for (auto& cst : spec.constants) {
      if (model_.find_constant(cst.name)) {
        error(cst.loc, support::cat("duplicate constant '", cst.name, "'"));
        continue;
      }
      const Type declared = resolve_type(cst.type);
      Scope empty;
      const Type actual = check_expr(*cst.value, empty);
      require_assignable(declared, actual, cst.loc,
                         support::cat("constant '", cst.name, "'"));
      model_.constants_.push_back({cst.name, declared, cst.value.get()});
    }
  }

  void resolve_functions(ast::SpecFile& spec) {
    // Register signatures first so functions can call each other.
    for (const auto& fn : spec.functions) {
      if (model_.find_function(fn.name)) {
        error(fn.loc, support::cat("duplicate function '", fn.name, "'"));
        continue;
      }
      FunctionInfo info;
      info.name = fn.name;
      info.return_type = resolve_type(fn.return_type);
      for (const auto& param : fn.params) {
        info.params.emplace_back(param.name, resolve_type(param.type));
      }
      info.body = fn.body.get();
      model_.functions_.push_back(std::move(info));
    }
    for (auto& fn : spec.functions) {
      const FunctionInfo* info = model_.find_function(fn.name);
      if (info == nullptr || info->body != fn.body.get()) continue;
      Scope scope;
      for (const auto& [name, type] : info->params) scope.vars.emplace_back(name, type);
      const Type body = check_expr(*fn.body, scope);
      require_assignable(info->return_type, body, fn.loc,
                         support::cat("function '", fn.name, "' body"));
    }
  }

  void resolve_properties(ast::SpecFile& spec) {
    for (auto& prop : spec.properties) {
      if (model_.find_property(prop.name)) {
        error(prop.loc, support::cat("duplicate property '", prop.name, "'"));
        continue;
      }
      PropertyInfo info;
      info.name = prop.name;
      Scope scope;
      for (const auto& param : prop.params) {
        const Type type = resolve_type(param.type);
        info.params.emplace_back(param.name, type);
        scope.vars.emplace_back(param.name, type);
      }
      for (auto& let : prop.lets) {
        const Type declared = resolve_type(let.type);
        const Type actual = check_expr(*let.init, scope);
        require_assignable(declared, actual, let.loc,
                           support::cat("LET binding '", let.name, "'"));
        info.lets.push_back({let.name, declared, let.init.get()});
        scope.vars.emplace_back(let.name, declared);
      }
      std::set<std::string> condition_ids;
      for (auto& cond : prop.conditions) {
        if (!cond.id.empty() && !condition_ids.insert(cond.id).second) {
          error(cond.loc, support::cat("duplicate condition id '(", cond.id,
                                       ")' in property ", prop.name));
        }
        const Type type = check_expr(*cond.pred, scope);
        if (!type.is_error() && type.kind != TypeKind::kBool) {
          error(cond.loc, support::cat("condition must be bool, got ",
                                       model_.type_name(type)));
        }
        info.conditions.push_back({cond.id, cond.pred.get()});
      }
      const auto check_arms = [&](std::vector<ast::GuardedExpr>& arms,
                                  std::vector<GuardedInfo>& out,
                                  std::string_view what) {
        for (auto& arm : arms) {
          if (!arm.guard.empty() && !condition_ids.contains(arm.guard)) {
            error(arm.loc, support::cat(what, " guard '(", arm.guard,
                                        ")' does not name a condition"));
          }
          const Type type = check_expr(*arm.expr, scope);
          if (!type.is_error() && !type.is_numeric()) {
            error(arm.loc, support::cat(what, " must be numeric, got ",
                                        model_.type_name(type)));
          }
          out.push_back({arm.guard, arm.expr.get()});
        }
      };
      check_arms(prop.confidence, info.confidence, "CONFIDENCE");
      check_arms(prop.severity, info.severity, "SEVERITY");
      model_.properties_.push_back(std::move(info));
    }
  }

  void require_assignable(const Type& target, const Type& source, SourceLoc loc,
                          std::string_view what) {
    if (target.is_error() || source.is_error()) return;
    if (target == source) return;
    if (target.kind == TypeKind::kFloat && source.kind == TypeKind::kInt) return;
    if (target.kind == TypeKind::kClass && source.kind == TypeKind::kNullRef) return;
    if (target.kind == TypeKind::kClass && source.kind == TypeKind::kClass &&
        model_.is_subclass_of(source.id, target.id)) {
      return;
    }
    error(loc, support::cat(what, ": cannot use ", model_.type_name(source),
                            " where ", model_.type_name(target), " is expected"));
  }

  // --- expression type checking --------------------------------------------

  /// Checks `e` and records its type on the node: the evaluators read an
  /// object's class and a scalar's database mapping from there.
  Type check_expr(ast::Expr& e, Scope& scope) {
    e.type = type_of(e, scope);
    return e.type;
  }

  Type type_of(ast::Expr& e, Scope& scope) {
    using Kind = ast::Expr::Kind;
    switch (e.kind) {
      case Kind::kIntLit: return Type::of(TypeKind::kInt);
      case Kind::kFloatLit: return Type::of(TypeKind::kFloat);
      case Kind::kBoolLit: return Type::of(TypeKind::kBool);
      case Kind::kStringLit: return Type::of(TypeKind::kString);
      case Kind::kNullLit: return Type::of(TypeKind::kNullRef);

      case Kind::kIdent: {
        if (const Type* var = scope.find(e.name)) return *var;
        if (const ConstInfo* cst = model_.find_constant(e.name)) return cst->type;
        if (const auto member = model_.find_enum_member(e.name)) {
          return Type::enum_of(member->first);
        }
        error(e.loc, support::cat("unknown name '", e.name, "'"));
        return Type::error();
      }

      case Kind::kMember: {
        const Type base = check_expr(*e.base, scope);
        if (base.is_error()) return Type::error();
        if (base.kind != TypeKind::kClass) {
          error(e.loc, support::cat("attribute access '.", e.name,
                                    "' on non-object type ",
                                    model_.type_name(base)));
          return Type::error();
        }
        const ClassInfo& cls = model_.class_info(base.id);
        const auto attr = cls.find_attr(e.name);
        if (!attr) {
          error(e.loc, support::cat("class ", cls.name, " has no attribute '",
                                    e.name, "'"));
          return Type::error();
        }
        return cls.attrs[*attr].type;
      }

      case Kind::kCall: {
        const FunctionInfo* fn = model_.find_function(e.name);
        if (fn == nullptr) {
          error(e.loc, support::cat("unknown function '", e.name, "'"));
          for (auto& arg : e.args) check_expr(*arg, scope);
          return Type::error();
        }
        if (e.args.size() != fn->params.size()) {
          error(e.loc, support::cat("function '", e.name, "' expects ",
                                    fn->params.size(), " arguments, got ",
                                    e.args.size()));
        }
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          const Type arg = check_expr(*e.args[i], scope);
          if (i < fn->params.size()) {
            require_assignable(fn->params[i].second, arg, e.args[i]->loc,
                               support::cat("argument ", i + 1, " of '", e.name,
                                            "'"));
          }
        }
        return fn->return_type;
      }

      case Kind::kUnary: {
        const Type operand = check_expr(*e.lhs, scope);
        if (operand.is_error()) return Type::error();
        if (e.un_op == ast::UnOp::kNot) {
          if (operand.kind != TypeKind::kBool) {
            error(e.loc, support::cat("NOT requires bool, got ",
                                      model_.type_name(operand)));
            return Type::error();
          }
          return operand;
        }
        if (!operand.is_numeric()) {
          error(e.loc, support::cat("unary '-' requires a numeric operand, got ",
                                    model_.type_name(operand)));
          return Type::error();
        }
        return operand;
      }

      case Kind::kBinary:
        return check_binary(e, scope);

      case Kind::kComprehension: {
        const Type set = check_expr(*e.base, scope);
        if (set.is_error()) return Type::error();
        if (set.kind != TypeKind::kSet) {
          error(e.loc, support::cat("comprehension requires a set, got ",
                                    model_.type_name(set)));
          return Type::error();
        }
        scope.vars.emplace_back(e.name, Type::class_of(set.id));
        if (e.filter) {
          const Type pred = check_expr(*e.filter, scope);
          if (!pred.is_error() && pred.kind != TypeKind::kBool) {
            error(e.filter->loc, support::cat("WITH predicate must be bool, got ",
                                              model_.type_name(pred)));
          }
        }
        scope.vars.pop_back();
        return set;
      }

      case Kind::kAggregate: {
        if (!e.base) {
          // Identity form: MAX(scalar).
          const Type value = check_expr(*e.agg_value, scope);
          if (value.is_error()) return Type::error();
          if (!value.is_numeric()) {
            error(e.loc, support::cat(ast::to_string(e.agg_kind),
                                      " over a single value requires a numeric "
                                      "operand, got ",
                                      model_.type_name(value)));
            return Type::error();
          }
          return aggregate_result(e.agg_kind, value);
        }
        const Type set = check_expr(*e.base, scope);
        if (set.is_error()) return Type::error();
        if (set.kind != TypeKind::kSet) {
          error(e.loc, support::cat("aggregate binder must range over a set, got ",
                                    model_.type_name(set)));
          return Type::error();
        }
        scope.vars.emplace_back(e.name, Type::class_of(set.id));
        const Type value = check_expr(*e.agg_value, scope);
        if (e.agg_kind != ast::AggKind::kCount && !value.is_error() &&
            !value.is_numeric()) {
          error(e.agg_value->loc,
                support::cat("aggregate value must be numeric, got ",
                             model_.type_name(value)));
        }
        if (e.filter) {
          const Type pred = check_expr(*e.filter, scope);
          if (!pred.is_error() && pred.kind != TypeKind::kBool) {
            error(e.filter->loc, support::cat("aggregate filter must be bool, got ",
                                              model_.type_name(pred)));
          }
        }
        scope.vars.pop_back();
        return aggregate_result(e.agg_kind, value);
      }

      case Kind::kUnique: {
        const Type set = check_expr(*e.base, scope);
        if (set.is_error()) return Type::error();
        if (set.kind != TypeKind::kSet) {
          error(e.loc, support::cat("UNIQUE requires a set, got ",
                                    model_.type_name(set)));
          return Type::error();
        }
        return Type::class_of(set.id);
      }

      case Kind::kExists:
      case Kind::kSize: {
        const Type set = check_expr(*e.base, scope);
        if (set.is_error()) return Type::error();
        if (set.kind != TypeKind::kSet) {
          error(e.loc, support::cat(e.kind == Kind::kExists ? "EXISTS" : "SIZE",
                                    " requires a set, got ",
                                    model_.type_name(set)));
          return Type::error();
        }
        return Type::of(e.kind == Kind::kExists ? TypeKind::kBool : TypeKind::kInt);
      }
    }
    return Type::error();
  }

  [[nodiscard]] static Type aggregate_result(ast::AggKind kind, const Type& value) {
    switch (kind) {
      case ast::AggKind::kMin:
      case ast::AggKind::kMax:
        return value.is_numeric() ? value : Type::of(TypeKind::kFloat);
      case ast::AggKind::kSum:
      case ast::AggKind::kAvg:
        return Type::of(TypeKind::kFloat);
      case ast::AggKind::kCount:
        return Type::of(TypeKind::kInt);
    }
    return Type::error();
  }

  Type check_binary(ast::Expr& e, Scope& scope) {
    const Type lhs = check_expr(*e.lhs, scope);
    const Type rhs = check_expr(*e.rhs, scope);
    if (lhs.is_error() || rhs.is_error()) return Type::error();

    using ast::BinOp;
    switch (e.bin_op) {
      case BinOp::kAnd:
      case BinOp::kOr:
        if (lhs.kind != TypeKind::kBool || rhs.kind != TypeKind::kBool) {
          error(e.loc, support::cat(ast::to_string(e.bin_op),
                                    " requires bool operands, got ",
                                    model_.type_name(lhs), " and ",
                                    model_.type_name(rhs)));
          return Type::error();
        }
        return Type::of(TypeKind::kBool);

      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv:
        if (!lhs.is_numeric() || !rhs.is_numeric()) {
          error(e.loc, support::cat("arithmetic '", ast::to_string(e.bin_op),
                                    "' requires numeric operands, got ",
                                    model_.type_name(lhs), " and ",
                                    model_.type_name(rhs)));
          return Type::error();
        }
        if (e.bin_op == BinOp::kDiv) return Type::of(TypeKind::kFloat);
        if (lhs.kind == TypeKind::kFloat || rhs.kind == TypeKind::kFloat) {
          return Type::of(TypeKind::kFloat);
        }
        return Type::of(TypeKind::kInt);

      case BinOp::kEq:
      case BinOp::kNe: {
        const bool ok =
            (lhs.is_numeric() && rhs.is_numeric()) ||
            (lhs.kind == rhs.kind &&
             (lhs.kind == TypeKind::kString || lhs.kind == TypeKind::kBool ||
              lhs.kind == TypeKind::kDateTime)) ||
            (lhs.kind == TypeKind::kEnum && rhs.kind == TypeKind::kEnum &&
             lhs.id == rhs.id) ||
            (lhs.kind == TypeKind::kClass && rhs.kind == TypeKind::kClass &&
             (model_.is_subclass_of(lhs.id, rhs.id) ||
              model_.is_subclass_of(rhs.id, lhs.id))) ||
            (lhs.kind == TypeKind::kClass && rhs.kind == TypeKind::kNullRef) ||
            (lhs.kind == TypeKind::kNullRef && rhs.kind == TypeKind::kClass) ||
            (lhs.kind == TypeKind::kNullRef && rhs.kind == TypeKind::kNullRef);
        if (!ok) {
          error(e.loc, support::cat("cannot compare ", model_.type_name(lhs),
                                    " with ", model_.type_name(rhs)));
          return Type::error();
        }
        return Type::of(TypeKind::kBool);
      }

      default: {  // kLt, kLe, kGt, kGe
        const bool ok = (lhs.is_numeric() && rhs.is_numeric()) ||
                        (lhs.kind == rhs.kind && lhs.is_ordered());
        if (!ok) {
          error(e.loc, support::cat("ordering comparison requires ordered "
                                    "operands, got ",
                                    model_.type_name(lhs), " and ",
                                    model_.type_name(rhs)));
          return Type::error();
        }
        return Type::of(TypeKind::kBool);
      }
    }
  }

  std::shared_ptr<ast::SpecFile> spec_;
  Model model_;
  std::vector<std::pair<SourceLoc, std::string>> errors_;
};

Model analyze(ast::SpecFile spec) { return SemaBuilder(std::move(spec)).build(); }

ast::SpecFile merge_specs(std::vector<ast::SpecFile> specs) {
  ast::SpecFile merged;
  for (ast::SpecFile& spec : specs) {
    for (auto& c : spec.classes) merged.classes.push_back(std::move(c));
    for (auto& e : spec.enums) merged.enums.push_back(std::move(e));
    for (auto& f : spec.functions) merged.functions.push_back(std::move(f));
    for (auto& k : spec.constants) merged.constants.push_back(std::move(k));
    for (auto& p : spec.properties) merged.properties.push_back(std::move(p));
  }
  return merged;
}

Model load_model(std::initializer_list<std::string_view> sources) {
  std::vector<ast::SpecFile> specs;
  specs.reserve(sources.size());
  for (std::string_view source : sources) {
    specs.push_back(parse_spec_or_throw(source));
  }
  return analyze(merge_specs(std::move(specs)));
}

}  // namespace kojak::asl
