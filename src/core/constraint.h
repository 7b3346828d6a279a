// Constraint objects (thesis §4.1.2): assertions over argument variables.
// Semantics are defined by two methods — immediateInferenceByChanging: and
// isSatisfied — which subclasses redefine to customize propagation behaviour.
#pragma once

#include <string>
#include <vector>

#include "core/propagatable.h"
#include "core/status.h"
#include "core/variable.h"

namespace stemcp::core {

class PropagationContext;

class Constraint : public Propagatable {
 public:
  explicit Constraint(PropagationContext& ctx) : ctx_(ctx) {}

  Constraint(const Constraint&) = delete;
  Constraint& operator=(const Constraint&) = delete;

  PropagationContext& context() const { return ctx_; }
  const std::vector<Variable*>& arguments() const { return args_; }
  bool references(const Variable& v) const;

  /// Fine-grained propagation control (thesis §9.3): a disabled constraint
  /// neither propagates nor participates in the final isSatisfied sweep;
  /// re-enabling re-propagates its arguments to restore consistency.
  bool enabled() const { return enabled_; }
  void disable() { enabled_ = false; }
  Status enable();

  /// Strength carried by every value this constraint propagates
  /// (thesis §4.2.4's constraint-strength suggestion); normal by default.
  Strength strength() const { return strength_; }
  void set_strength(Strength s) { strength_ = s; }

  /// Default activation (thesis Fig 4.4): mark visited, then infer
  /// immediately.  Functional constraints override this to schedule instead.
  Status propagate_variable(Variable& changed) override;

  /// `immediateInferenceByChanging:` — examine the changed variable and
  /// assign inferred values to the other arguments.  Default: no inference
  /// (pure check constraints).
  virtual Status immediate_inference_by_changing(Variable& changed);

  /// Add an argument with re-propagation (thesis Fig 4.13): arguments are
  /// re-pushed through this constraint in precedence order — user-specified
  /// first, then constraint-dependent, then other independents.
  Status add_argument(Variable& v);
  /// Attach without re-propagation (used while constructing constraints
  /// before any value exists — `basicAddArgument:`).
  void basic_add_argument(Variable& v);
  /// Remove an argument with dependency-directed erasure and re-propagation
  /// of the remainder (thesis Fig 4.14).
  void remove_argument(Variable& v);
  /// Drop the argument pointer only (no variable-side or dependency
  /// bookkeeping); used during Variable destruction.
  void detach_argument_raw(Variable& v);

  /// `reinitializeVariables` — re-propagate all arguments (after an edit).
  Status reinitialize_variables();

  // Dependency analysis defaults over the argument list (thesis Fig 4.11):
  void antecedents_of(const Variable& var, DependencyTrace& out) const override;
  void consequences_of(const Variable& var,
                       DependencyTrace& out) const override;

  std::string describe() const override;
  std::string type_name() const override { return kind(); }

 protected:
  /// Short type tag used in descriptions ("equality", "uniMax", ...).
  virtual std::string kind() const = 0;

  /// Helper for inference methods: propagate `v` to `target` with a
  /// dependency record, translating the context's bookkeeping.
  Status propagate_value_to(Variable& target, Value v,
                            DependencyRecord record);

  std::vector<Variable*> args_;

 private:
  friend class PropagationContext;

  PropagationContext& ctx_;
  /// Index in the owning context's constraint list (set by make()).
  std::size_t slot_ = static_cast<std::size_t>(-1);
  bool enabled_ = true;
  Strength strength_ = Strength::kNormal;
};

}  // namespace stemcp::core
