#ifndef KOJAK_ASL_INTERP_HPP
#define KOJAK_ASL_INTERP_HPP

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asl/model.hpp"
#include "asl/object_store.hpp"

namespace kojak::asl {

/// Outcome of evaluating one property in one context (the paper §4:
/// condition -> does the property hold; confidence in [0,1]; severity ranks
/// it; a property whose evaluation hits a data gap — e.g. UNIQUE over an
/// empty set because a region was not measured — is *not applicable*).
struct PropertyResult {
  enum class Status { kHolds, kDoesNotHold, kNotApplicable };

  Status status = Status::kDoesNotHold;
  double confidence = 0.0;
  double severity = 0.0;
  /// Id (or 1-based ordinal rendered as "#k") of the first condition that
  /// held; empty when none did.
  std::string matched_condition;
  /// Explanation when kNotApplicable.
  std::string note;

  [[nodiscard]] bool holds() const noexcept { return status == Status::kHolds; }

  [[nodiscard]] static PropertyResult not_applicable(std::string note) {
    PropertyResult out;
    out.status = Status::kNotApplicable;
    out.note = std::move(note);
    return out;
  }
};

/// How a result names condition `i` of `prop`: its id, or "#<i+1>".
[[nodiscard]] std::string condition_label(const PropertyInfo& prop,
                                          std::size_t i);

/// The property contract over one context, shared by every evaluator:
/// `condition(i)` says whether condition i holds and `arm(severity, i)` is
/// the value of confidence arm i (severity arm i when `severity`). The first
/// condition that holds is the match; confidence and severity are each the
/// maximum over the arms whose guard held (0 without one), and confidence
/// is clamped to [0, 1]. A callback reports a data gap by throwing, and the
/// caller turns that into a not-applicable result.
[[nodiscard]] PropertyResult decide_property(
    const PropertyInfo& prop, const std::function<bool(std::size_t)>& condition,
    const std::function<double(bool, std::size_t)>& arm);

/// Variable bindings for expression evaluation (parameters, LET bindings,
/// comprehension/aggregate binders).
class Env {
 public:
  void push(std::string name, RtValue value) {
    vars_.emplace_back(std::move(name), std::move(value));
  }
  void pop() { vars_.pop_back(); }

  [[nodiscard]] const RtValue* find(std::string_view name) const {
    for (auto it = vars_.rbegin(); it != vars_.rend(); ++it) {
      if (it->first == name) return &it->second;
    }
    return nullptr;
  }

 private:
  std::vector<std::pair<std::string, RtValue>> vars_;
};

/// Where the interpreter's data comes from: the in-memory ObjectStore, or a
/// database the SQL evaluators read (cosy/sql_eval). A source shared by
/// interpreters on several threads must be stateless, as the store's is.
class DataSource {
 public:
  /// Attribute `member.name` of object `id`, an instance of the class sema
  /// recorded as `member.base->type`. A setof attribute reads as the ids of
  /// its members (an unset one as the empty set).
  [[nodiscard]] virtual RtValue read_member(ObjectId id,
                                            const ast::Expr& member) = 0;
  /// The value of a whole set node — a comprehension, an aggregate over a
  /// set, UNIQUE, EXISTS or SIZE — in `env`, or nullopt to let the
  /// interpreter run its own loop over the members.
  [[nodiscard]] virtual std::optional<RtValue> eval_set(
      const ast::Expr& /*set*/, Env& /*env*/) {
    return std::nullopt;
  }

 protected:
  ~DataSource() = default;
};

/// The one ASL evaluator: a tree walk over the expressions of a model, the
/// semantic reference implementation of the language. Its data comes from a
/// DataSource — the object store, or SQL reads of the imported database (the
/// site-wise SQL backends of kojak_cosy, which the differential tests pin to
/// the store-backed interpreter).
class Interpreter {
 public:
  Interpreter(const Model& model, const ObjectStore& store);
  Interpreter(const Model& model, DataSource& data)
      : model_(&model), data_(&data) {}

  /// Evaluates an expression under the given environment.
  [[nodiscard]] RtValue eval(const ast::Expr& expr, Env& env) const;

  /// Calls a specification function with already-evaluated arguments.
  [[nodiscard]] RtValue call(const FunctionInfo& fn,
                             std::vector<RtValue> args) const;

  /// Evaluates a property for a context (argument values in parameter
  /// order). Evaluation errors yield kNotApplicable, not an exception:
  /// a data gap in one region must not abort the whole analysis. A
  /// support::CompileLimit of the data source is no data gap and escapes.
  [[nodiscard]] PropertyResult evaluate_property(const PropertyInfo& prop,
                                                 std::vector<RtValue> args) const;

 private:
  [[nodiscard]] RtValue eval_set(const ast::Expr& expr, Env& env) const;
  [[nodiscard]] RtValue eval_aggregate(const ast::Expr& expr, Env& env) const;
  [[nodiscard]] static bool truthy(const RtValue& value);

  const Model* model_;
  std::shared_ptr<DataSource> own_data_;  ///< the store's, when built on one
  DataSource* data_;
};

}  // namespace kojak::asl

#endif  // KOJAK_ASL_INTERP_HPP
