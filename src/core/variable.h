// Variable objects (thesis §4.1.1): active storage handles that constraints
// reference independently of their values.  Each has a parent, a name, a
// value, a constraint list, and a lastSetBy justification.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/justification.h"
#include "core/propagatable.h"
#include "core/status.h"
#include "core/value.h"

namespace stemcp::core {

class Constraint;
class PropagationContext;

class Variable {
 public:
  /// `parent_name` identifies the containing design object (e.g. "ADDER"),
  /// `name` the field within it ("boundingBox"); together they form the
  /// unique identification path of the thesis.
  Variable(PropagationContext& ctx, std::string parent_name, std::string name);
  virtual ~Variable();

  Variable(const Variable&) = delete;
  Variable& operator=(const Variable&) = delete;

  PropagationContext& context() const { return ctx_; }
  const std::string& parent_name() const { return parent_; }
  const std::string& name() const { return name_; }
  std::string path() const { return parent_ + "." + name_; }

  const Value& value() const { return value_; }
  bool has_value() const { return !value_.is_nil(); }
  const Justification& last_set_by() const { return last_set_by_; }
  bool is_dependent() const { return last_set_by_.is_propagated(); }

  const std::vector<Propagatable*>& constraints() const {
    return constraints_;
  }

  /// `setTo:justification:` — external assignment; triggers a full
  /// propagation session (initial DFS, agenda drain, final isSatisfied sweep).
  /// Returns violation status; on violation the network is restored.
  Status set(Value v, Justification j);

  /// Convenience wrappers for the common external sources.
  Status set_user(Value v) { return set(std::move(v), Justification::user()); }
  Status set_application(Value v) {
    return set(std::move(v), Justification::application());
  }

  /// External assignment inside an already-open run_session (batched
  /// requests): identical to set() except the caller owns the session, so
  /// many #USER assignments coalesce into one propagation wave, one agenda
  /// drain and one final isSatisfied sweep.  Throws std::logic_error when no
  /// session is open; with the CPSwitch off it degrades to a plain store
  /// like set().
  Status set_in_session(Value v, Justification j);

  /// `setTo:constraint:justification:` — assignment by a constraint during
  /// propagation.  Applies the termination criteria (§4.2.2), the
  /// one-value-change rule, and the overwrite precedence, then propagates to
  /// every constraint except `source`.
  Status set_from_constraint(Value v, Propagatable& source, Justification j);

  /// `canBeSetTo:` (thesis Fig 8.2) — tentatively assign, propagate, then
  /// restore regardless of outcome; true iff no violation occurred.
  bool can_be_set_to(Value v);

  /// Erase the value without any propagation (dependency-directed erasure,
  /// thesis Fig 4.14).  Subclasses may react via on_reset().
  void reset_raw();

  /// Procedural update-constraint helper: erase this variable's value from
  /// inside or outside a propagation session (thesis Fig 7.8's
  /// `setTo:nil justification:#UPDATE`).
  Status erase_for_update(Propagatable& source);

  /// Overwrite precedence (thesis §4.2.4): may `incoming` replace the current
  /// value with `v`?  Default: #USER values outrank propagated/calculated
  /// ones.  Signal-type and bounding-box variables refine this.
  virtual bool can_change_value_to(const Value& v,
                                   const Justification& incoming) const;

  /// Append the implicit constraints attached to this variable (thesis
  /// §5.1.1) — the dual variables in the other half of the class/instance
  /// declaration — to `out`.  They receive propagateVariable: exactly like
  /// explicit constraints.  Appending into the caller's buffer lets fan-out
  /// reuse pooled scratch instead of allocating per dual it crosses.
  virtual void append_implicit_constraints(
      std::vector<Propagatable*>& /*out*/) const {}

  /// Dependency analysis (thesis Fig 4.11/4.12).
  void antecedents(DependencyTrace& out) const;
  void consequences(DependencyTrace& out) const;
  DependencyTrace antecedents() const;
  DependencyTrace consequences() const;

  /// `addConstraint:` / `removeConstraint:` (thesis §4.2.5).  Addition
  /// re-propagates the constraint's arguments in precedence order; removal
  /// erases all dependent values, then re-propagates the remainder.
  Status add_constraint(Constraint& c);
  void remove_constraint(Constraint& c);

  /// `propagateAlongConstraint:` — push this variable's value through a
  /// single constraint and drain the agendas (used by network editing).
  Status propagate_along(Propagatable& c);

  std::string to_string() const;

 protected:
  friend class PropagationContext;
  friend class Constraint;
  friend class CompiledNetwork;

  /// Raw store of a value and its justification, bypassing all propagation:
  /// the CPSwitch-off assignment (§5.3), the engine's restore, and compiled
  /// evaluation.  Always ok.
  Status store(Value v, Justification j);

  /// Hook invoked after a successful value change inside a propagation
  /// session, before fan-out (used e.g. by instance bounding boxes to reset
  /// the parent cell's class box procedurally — thesis Fig 7.8).  A returned
  /// violation aborts the session like any other.
  virtual Status after_value_change(const Justification& j);

  /// Hook invoked by reset_raw().
  virtual void on_reset() {}

  /// Fan out propagateVariable: to all explicit then implicit constraints,
  /// skipping `except` (the source of the value, if any).
  Status propagate_to_constraints(Propagatable* except);

 private:
  /// The one assignment step of set(), set_in_session() and
  /// set_from_constraint(): record visited state, count, store, trace, run
  /// the change hook, fan out to every constraint but `source`.  Requires an
  /// open session.
  Status assign(Value v, Justification j, Propagatable* source);
  /// One activation: count it, trace it, send propagateVariable: to `c`.
  Status activate(Propagatable& c);

  void attach(Propagatable& c);
  void detach(Propagatable& c);

  PropagationContext& ctx_;
  std::string parent_;
  std::string name_;
  Value value_;
  Justification last_set_by_;
  std::vector<Propagatable*> constraints_;

  // Intrusive visited-dictionary state (docs/PERFORMANCE.md): this variable
  // is "visited" iff visit_epoch_ equals the context's current session epoch;
  // session_changes_ counts value changes under that epoch.  Stamps are
  // globally unique, so stale values from other sessions can never match.
  std::uint64_t visit_epoch_ = 0;
  int session_changes_ = 0;
};

}  // namespace stemcp::core
