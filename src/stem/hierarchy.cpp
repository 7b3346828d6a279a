#include "stem/hierarchy.h"

#include <algorithm>

namespace stemcp::env {

using core::DependencyTrace;
using core::Status;
using core::Value;
using core::Variable;

// ---- StemVariable -----------------------------------------------------------

Status StemVariable::propagate_variable(Variable& changed) {
  context().mark_visited(*this);
  if (permit_changes_by_implicit_propagation(changed)) {
    context().agenda().schedule_cached(*this, core::kImplicitConstraintsAgenda,
                                       &changed);
  }
  return Status::ok();
}

Status StemVariable::propagate_scheduled(Variable* changed) {
  if (changed == nullptr) return Status::ok();
  return immediate_inference_by_changing(*changed);
}

Status StemVariable::immediate_inference_by_changing(Variable&) {
  return Status::ok();
}

bool StemVariable::permit_changes_by_implicit_propagation(
    const Variable&) const {
  return true;
}

std::string StemVariable::describe() const { return "implicit(" + path() + ")"; }

void StemVariable::antecedents_of(const Variable& var,
                                  DependencyTrace& out) const {
  out.constraints.insert(this);
  for (const Variable* v : var.last_set_by().record().vars) v->antecedents(out);
}

void StemVariable::consequences_of(const Variable& var,
                                   DependencyTrace& out) const {
  // This variable itself may be the dependent: hierarchical inference
  // records the *changed dual* as the source constraint, so when that dual
  // asks for consequences, the receiver is downstream.
  const auto* source = dynamic_cast<const Propagatable*>(&var);
  if (source != nullptr && last_set_by().constraint() == source &&
      test_membership(var, last_set_by().record())) {
    consequences(out);
  }
  // And duals set through this variable acting as the constraint.
  std::vector<core::Propagatable*> duals;
  append_implicit_constraints(duals);
  for (core::Propagatable* p : duals) {
    auto* d = dynamic_cast<Variable*>(p);
    if (d == nullptr || d == &var) continue;
    if (d->last_set_by().constraint() == this &&
        test_membership(var, d->last_set_by().record())) {
      d->consequences(out);
    }
  }
}

const Value& StemVariable::demand() {
  if (value().is_nil() && recalculate_ && !evaluating_ &&
      !context().in_propagation()) {
    evaluating_ = true;  // evalFlag: prevents infinite evaluation loops
    recalculate_();
    evaluating_ = false;
  }
  return value();
}

// ---- ClassVar ----------------------------------------------------------------

void ClassVar::append_implicit_constraints(
    std::vector<core::Propagatable*>& out) const {
  out.insert(out.end(), instances_.begin(), instances_.end());
}

void ClassVar::register_dual(InstanceVar& v) {
  if (std::find(instances_.begin(), instances_.end(), &v) ==
      instances_.end()) {
    instances_.push_back(&v);
  }
}

void ClassVar::unregister_dual(InstanceVar& v) {
  instances_.erase(std::remove(instances_.begin(), instances_.end(), &v),
                   instances_.end());
}

// ---- InstanceVar --------------------------------------------------------------

InstanceVar::InstanceVar(core::PropagationContext& ctx,
                         std::string parent_name, std::string name,
                         ClassVar* dual)
    : StemVariable(ctx, std::move(parent_name), std::move(name)),
      dual_(dual) {
  if (dual_ != nullptr) dual_->register_dual(*this);
}

InstanceVar::~InstanceVar() {
  if (dual_ != nullptr) dual_->unregister_dual(*this);
}

void InstanceVar::append_implicit_constraints(
    std::vector<core::Propagatable*>& out) const {
  if (dual_ != nullptr) out.push_back(dual_);
}

core::Justification InstanceVar::implied_justification() const {
  return core::Justification::propagated(
      *dual_, core::DependencyRecord::single(*dual_));
}

Status InstanceVar::immediate_inference_by_changing(Variable& changed) {
  if (&changed != dual_ || keeps_own_value()) return Status::ok();
  Value implied = implied_value();
  if (implied.is_nil()) return Status::ok();
  return set_from_constraint(std::move(implied), *dual_,
                             implied_justification());
}

Status InstanceVar::assign_implied_value() {
  if (keeps_own_value()) return Status::ok();
  Value implied = implied_value();
  if (implied.is_nil() || implied == value()) return Status::ok();
  return set(std::move(implied), implied_justification());
}

}  // namespace stemcp::env
