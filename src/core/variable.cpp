#include "core/variable.h"

#include <algorithm>
#include <stdexcept>

#include "core/constraint.h"
#include "core/engine.h"

namespace stemcp::core {

Variable::Variable(PropagationContext& ctx, std::string parent_name,
                   std::string name)
    : ctx_(ctx), parent_(std::move(parent_name)), name_(std::move(name)) {}

Variable::~Variable() {
  // Detach from any constraints that still reference this variable so no
  // dangling argument pointers survive.  Variables must not be destroyed
  // while a propagation session is running.
  const auto list = constraints_;
  for (Propagatable* p : list) {
    if (auto* c = dynamic_cast<Constraint*>(p)) c->detach_argument_raw(*this);
  }
}

Status Variable::set(Value v, Justification j) {
  if (!ctx_.enabled()) return store(std::move(v), std::move(j));
  if (ctx_.in_propagation()) {
    throw std::logic_error("external assignment during propagation: " +
                           path());
  }
  return ctx_.run_session(
      [&]() -> Status { return assign(std::move(v), std::move(j), nullptr); });
}

Status Variable::set_in_session(Value v, Justification j) {
  if (!ctx_.enabled()) return store(std::move(v), std::move(j));
  if (!ctx_.in_propagation()) {
    throw std::logic_error("set_in_session outside a propagation session: " +
                           path());
  }
  return assign(std::move(v), std::move(j), nullptr);
}

Status Variable::assign(Value v, Justification j, Propagatable* source) {
  ctx_.record_visited(*this);
  ctx_.count_change(*this);
  const bool changed = value_ != v;
  value_ = std::move(v);
  last_set_by_ = std::move(j);
  ++ctx_.mutable_stats().assignments;
  if (ctx_.tracing()) {
    ctx_.tracer().emit(TraceEventType::kAssignment,
                       path() + " = " + value_.to_string(), this);
  }
  if (changed) {
    const Status hook = after_value_change(last_set_by_);
    if (hook.is_violation()) return hook;
  }
  return propagate_to_constraints(source);
}

Status Variable::set_from_constraint(Value v, Propagatable& source,
                                     Justification j) {
  if (!ctx_.enabled()) return store(std::move(v), std::move(j));
  // Termination criterion (§4.2.2): the current value agrees with the
  // propagated value — the wavefront stops here.
  if (value_ == v) return Status::no_change();
  // Value-change rule: a variable may change at most
  // max_changes_per_variable times per propagation cycle (§4.2.2; the
  // default of 1 is the thesis's one-value-change rule).  A further,
  // disagreeing change is a violation.
  if (!ctx_.may_change_again(*this)) {
    return ctx_.signal_violation(
        {&source, this, std::move(v),
         "value-change rule: variable exhausted its " +
             std::to_string(ctx_.max_changes_per_variable()) +
             " change(s) this propagation"});
  }
  // Overwrite precedence: e.g. #USER values cannot be modified by
  // propagation.
  if (!can_change_value_to(v, j)) {
    return ctx_.signal_violation(
        {&source, this, std::move(v),
         "value protected by " +
             std::string(core::to_string(last_set_by_.source())) +
             " justification"});
  }
  return assign(std::move(v), std::move(j), &source);
}

Status Variable::erase_for_update(Propagatable& source) {
  if (!ctx_.enabled()) {
    reset_raw();
    return Status::ok();
  }
  if (ctx_.in_propagation()) {
    return set_from_constraint(
        Value::nil(), source,
        Justification::propagated(source, DependencyRecord::none()));
  }
  return set(Value::nil(), Justification::update());
}

bool Variable::can_be_set_to(Value v) {
  if (!ctx_.enabled()) return true;
  const Status s = ctx_.run_session([&]() -> Status {
    ctx_.record_visited(*this);
    ctx_.count_change(*this);
    const bool changed = value_ != v;
    value_ = std::move(v);
    last_set_by_ = Justification::tentative();
    if (changed) {
      const Status hook = after_value_change(last_set_by_);
      if (hook.is_violation()) return hook;
    }
    return propagate_to_constraints(nullptr);
  });
  // Restore previous values whether or not the probe succeeded (thesis
  // Fig 8.2 canBeSetTo:); a violation already restored inside the session.
  if (s.is_ok()) ctx_.restore_visited();
  return s.is_ok();
}

void Variable::reset_raw() {
  value_ = Value::nil();
  last_set_by_ = Justification{};
  on_reset();
}

bool Variable::can_change_value_to(const Value&,
                                   const Justification& incoming) const {
  if (incoming.is_user()) return true;  // user input overrides everything
  if (value_.is_nil()) return true;     // nothing to protect
  // Default precedence (§4.2.4): user-specified values have priority over
  // propagated and calculated values.
  if (last_set_by_.source() == Source::kUser) return false;
  // Among propagated values, stronger constraints resist weaker ones.
  if (last_set_by_.is_propagated() && incoming.is_propagated()) {
    return incoming.strength() >= last_set_by_.strength();
  }
  return true;
}

void Variable::antecedents(DependencyTrace& out) const {
  if (!out.variables.insert(this).second) return;
  if (is_dependent() && last_set_by_.constraint() != nullptr) {
    last_set_by_.constraint()->antecedents_of(*this, out);
  }
}

void Variable::consequences(DependencyTrace& out) const {
  if (!out.variables.insert(this).second) return;
  for (Propagatable* c : constraints_) c->consequences_of(*this, out);
  std::vector<Propagatable*> implicit;
  append_implicit_constraints(implicit);
  for (Propagatable* ic : implicit) ic->consequences_of(*this, out);
}

DependencyTrace Variable::antecedents() const {
  DependencyTrace t;
  antecedents(t);
  return t;
}

DependencyTrace Variable::consequences() const {
  DependencyTrace t;
  consequences(t);
  return t;
}

Status Variable::add_constraint(Constraint& c) { return c.add_argument(*this); }

void Variable::remove_constraint(Constraint& c) { c.remove_argument(*this); }

Status Variable::activate(Propagatable& c) {
  ++ctx_.mutable_stats().activations;
  if (ctx_.tracing()) {
    ctx_.tracer().emit(TraceEventType::kActivation, c.describe(), &c);
  }
  return c.propagate_variable(*this);
}

Status Variable::propagate_along(Propagatable& c) {
  const Status s = activate(c);
  if (s.is_violation()) return s;
  return ctx_.drain_agendas();
}

Status Variable::propagate_to_constraints(Propagatable* except) {
  // Snapshot: violation handlers or procedural hooks may edit the lists.
  // Each snapshot lives in a context-owned scratch buffer pooled by recursion
  // depth, so steady-state fan-out copies nothing onto the heap.  The
  // implicit list is taken only after the explicit activations have run.
  std::vector<Propagatable*>& snapshot = ctx_.borrow_fanout_scratch();
  struct ScratchGuard {
    PropagationContext& ctx;
    ~ScratchGuard() { ctx.release_fanout_scratch(); }
  } guard{ctx_};
  snapshot.assign(constraints_.begin(), constraints_.end());
  for (Propagatable* c : snapshot) {
    if (c == except) continue;
    const Status s = activate(*c);
    if (s.is_violation()) return s;
  }
  snapshot.clear();
  append_implicit_constraints(snapshot);
  for (Propagatable* ic : snapshot) {
    if (ic == except) continue;
    const Status s = activate(*ic);
    if (s.is_violation()) return s;
  }
  return Status::ok();
}

Status Variable::store(Value v, Justification j) {
  value_ = std::move(v);
  last_set_by_ = std::move(j);
  return Status::ok();
}

Status Variable::after_value_change(const Justification&) {
  return Status::ok();
}

void Variable::attach(Propagatable& c) {
  if (std::find(constraints_.begin(), constraints_.end(), &c) ==
      constraints_.end()) {
    constraints_.push_back(&c);
  }
}

void Variable::detach(Propagatable& c) {
  constraints_.erase(
      std::remove(constraints_.begin(), constraints_.end(), &c),
      constraints_.end());
}

std::string Variable::to_string() const {
  return path() + " = " + value_.to_string() + " (" +
         last_set_by_.to_string() + ")";
}

}  // namespace stemcp::core
