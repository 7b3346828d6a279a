// Hierarchical constraint propagation (thesis ch. 5).
//
// STEM's dual declaration of instance variables — one variable on the cell
// class (characterizing the internal structure) and one per cell instance
// (characterizing each use) — turns the variables themselves into *implicit
// constraints* on their duals.  These variable-constraints respond to the
// full Propagatable protocol and schedule themselves on the dedicated
// #implicitConstraints agenda (thesis §5.1.2; drained ahead of functional
// work in this implementation — see core/agenda.cpp), so internal networks
// propagate only once regardless of the number of instances (thesis
// Fig 5.1).
#pragma once

#include <functional>
#include <vector>

#include "core/core.h"

namespace stemcp::env {

/// Base for every design-environment variable: a core Variable that also
/// implements the Propagatable protocol (`ImplicitConstraintVariable` of
/// thesis §5.1.1) and supports lazy recalculation (`PropertyVariable` of
/// thesis Fig 6.1).
class StemVariable : public core::Variable, public core::Propagatable {
 public:
  using core::Variable::Variable;

  // ---- Propagatable protocol (the "implicit constraint" half) -----------
  /// Schedule on #implicitConstraints with the changed dual recorded
  /// (thesis Fig 5.3).
  core::Status propagate_variable(core::Variable& changed) override;
  /// Deferred hierarchical inference.
  core::Status propagate_scheduled(core::Variable* changed) override;
  /// `immediateInferenceByChanging:` for the hierarchical link; default: no
  /// value flows (pure consistency checking).
  virtual core::Status immediate_inference_by_changing(core::Variable& changed);
  /// `permitChangesByImplicitPropagation` — default true (thesis Fig 5.3).
  virtual bool permit_changes_by_implicit_propagation(
      const core::Variable& changed) const;
  bool is_satisfied() const override { return true; }
  std::string describe() const override;

  // Dependency analysis across the hierarchical link.
  void antecedents_of(const core::Variable& var,
                      core::DependencyTrace& out) const override;
  void consequences_of(const core::Variable& var,
                       core::DependencyTrace& out) const override;

  /// The dual variables on the other side of the class/instance link.
  virtual std::vector<core::Variable*> duals() const { return {}; }

  // ---- PropertyVariable machinery (thesis Fig 6.1) -----------------------
  /// Recalculation action invoked by demand() when the value is nil.  The
  /// action is expected to assign the variable (typically with
  /// #APPLICATION justification), which triggers normal propagation.
  using Recalculate = std::function<void()>;
  void set_recalculate(Recalculate r) { recalculate_ = std::move(r); }
  bool has_recalculate() const { return static_cast<bool>(recalculate_); }

  /// Demand-driven value access: if the stored value is nil and a
  /// recalculation is installed, run it (guarded against recursive
  /// evaluation by the evalFlag and suppressed while a propagation session
  /// is active).
  const core::Value& demand();

 private:
  Recalculate recalculate_;
  bool evaluating_ = false;  // the thesis's evalFlag loop guard
};

/// Class-side dual variable: one per cell-class property/parameter/signal
/// attribute ("ClassInstVar").  Maintains the registry of its instance-side
/// duals.
class ClassVar : public StemVariable {
 public:
  using StemVariable::StemVariable;

  std::vector<core::Variable*> duals() const override;
  void append_implicit_constraints(
      std::vector<core::Propagatable*>& out) const override;

  void register_dual(class InstanceVar& v);
  void unregister_dual(class InstanceVar& v);
  const std::vector<class InstanceVar*>& instance_duals() const {
    return instances_;
  }

 private:
  std::vector<class InstanceVar*> instances_;
};

/// Instance-side dual variable ("InstanceInstVar").  Automatically
/// registers with its class-side dual for its lifetime.
class InstanceVar : public StemVariable {
 public:
  InstanceVar(core::PropagationContext& ctx, std::string parent_name,
              std::string name, ClassVar* dual);
  ~InstanceVar() override;

  ClassVar* class_dual() const { return dual_; }
  std::vector<core::Variable*> duals() const override;
  void append_implicit_constraints(
      std::vector<core::Propagatable*>& out) const override;

 private:
  ClassVar* dual_;
};

}  // namespace stemcp::env
