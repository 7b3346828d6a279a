// PropagationContext: the propagation engine (thesis §4.2).
//
// Owns all constraint objects, the agenda scheduler, the global
// VisitedConstraintsAndVariables dictionary that enforces the
// one-value-change rule, the CPSwitch enable flag (§5.3), violation
// reporting, and restore-on-violation.
//
// Hot-path design (docs/PERFORMANCE.md): the visited dictionary is an epoch
// stamp intruded into every Variable/Propagatable plus an undo trail owned
// here — was_visited / record_visited / may_change_again / mark_visited are
// O(1) stamp compares, and after warm-up a steady-state propagation session
// performs no heap allocation in the schedule/pop/record-visited path.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/agenda.h"
#include "core/justification.h"
#include "core/status.h"
#include "core/trace.h"
#include "core/value.h"

namespace stemcp::core {

class Constraint;
class Propagatable;
class Variable;

class PropagationContext {
 public:
  PropagationContext();
  ~PropagationContext();

  PropagationContext(const PropagationContext&) = delete;
  PropagationContext& operator=(const PropagationContext&) = delete;

  // ---- constraint ownership -------------------------------------------
  /// Create a constraint owned by this context.  Arguments are forwarded to
  /// the constraint's constructor after the context reference.
  template <typename T, typename... Args>
  T& make(Args&&... args) {
    auto owned = std::make_unique<T>(*this, std::forward<Args>(args)...);
    T& ref = *owned;
    adopt(std::move(owned));
    return ref;
  }

  /// Destroy a constraint: erase every value that depends on it, detach it
  /// from all argument variables, and release it (thesis §4.2.5).  O(1)
  /// apart from that work: the constraint knows its slot.  Throws
  /// std::logic_error, touching nothing, for another context's constraint.
  void destroy_constraint(Constraint& c);

  std::size_t constraint_count() const { return live_constraints_; }
  /// Non-owning view of every constraint in the context, in creation order
  /// (for audits, global recovery and the library reader's rollback).
  std::vector<Constraint*> all_constraints() const;

  // ---- CPSwitch ---------------------------------------------------------
  bool enabled() const { return enabled_; }
  /// Disable/enable constraint propagation globally (thesis §5.3).  While
  /// disabled, assignments set values without propagation or checking.
  void set_enabled(bool on) { enabled_ = on; }

  // ---- session state ----------------------------------------------------
  bool in_propagation() const { return in_propagation_; }

  /// Run `body` as one propagation session: clear visited state, execute,
  /// drain agendas, final isSatisfied sweep over visited constraints, and on
  /// violation invoke the handler and restore every visited variable.
  /// `body` is any callable returning Status; it is invoked through a thin
  /// thunk, so no std::function (and no allocation) is involved.
  template <typename F>
  Status run_session(F&& body) {
    using Body = std::remove_reference_t<F>;
    return run_session_impl(
        [](void* b) -> Status { return (*static_cast<Body*>(b))(); }, &body);
  }

  AgendaScheduler& agenda() { return agenda_; }
  const AgendaScheduler& agenda() const { return agenda_; }

  // ---- visited bookkeeping (one-value-change rule) -----------------------
  bool was_visited(const Variable& v) const;
  /// Record the variable's pre-change state (first visit only — putIfAbsent).
  void record_visited(Variable& v);
  /// May this variable still change in the current session?  With the
  /// default limit of 1 this is the thesis's one-value-change rule; raising
  /// the limit is the §9.2.3 "quick fix" for reconvergent fanout, allowing
  /// N value changes per propagation cycle.
  bool may_change_again(const Variable& v) const;
  /// Count one value change against the session limit.
  void count_change(Variable& v);
  int max_changes_per_variable() const { return max_changes_per_variable_; }
  void set_max_changes_per_variable(int n) {
    max_changes_per_variable_ = n < 1 ? 1 : n;
  }
  void mark_visited(Propagatable& c);
  const std::vector<Propagatable*>& visited_constraints() const {
    return visited_constraints_;
  }
  std::size_t visited_variable_count() const { return trail_size_; }

  /// Restore every visited variable to its pre-propagation state (thesis
  /// Fig 4.10).  Public so the constraint editor can offer "restore".
  void restore_visited();

  // ---- violations ---------------------------------------------------------
  using ViolationHandler = std::function<void(const ViolationInfo&)>;
  void set_violation_handler(ViolationHandler h) {
    violation_handler_ = std::move(h);
  }
  /// Record a violation (first one wins within a session) and return
  /// Status::violation() for convenient tail calls.
  Status signal_violation(ViolationInfo info);
  const std::optional<ViolationInfo>& last_violation() const {
    return last_violation_;
  }
  void clear_last_violation() { last_violation_.reset(); }
  /// Invoked by Propagatable::on_violation's default implementation.
  void report_violation(const ViolationInfo& info);

  /// Violation messages reported since construction (the thesis's warning
  /// text window), capped at violation_log_limit(): once full, the oldest
  /// entries are dropped — in O(1), the log is a ring — and counted in
  /// violation_log_dropped().  Oldest first.
  const std::deque<std::string>& violation_log() const {
    return violation_log_;
  }
  std::size_t violation_log_limit() const { return violation_log_limit_; }
  /// Cap the warning window (minimum 1); trims the log immediately.
  void set_violation_log_limit(std::size_t limit);
  std::uint64_t violation_log_dropped() const {
    return violation_log_dropped_;
  }

  // ---- drain / check helpers (exposed for network editing) ---------------
  /// The scheduler's fixpoint loop (AgendaScheduler::drain).
  Status drain_agendas() { return agenda_.drain(); }
  Status check_visited_constraints();

  // ---- statistics (used by the benchmark harness) -------------------------
  struct Stats {
    /// Priorities beyond this many share the last per-priority slot.
    static constexpr std::size_t kTrackedPriorities = 4;

    std::uint64_t sessions = 0;
    std::uint64_t assignments = 0;   ///< successful value changes
    std::uint64_t activations = 0;   ///< propagateVariable: sends
    std::uint64_t scheduled_runs = 0;///< agenda entries run (by the scheduler)
    std::uint64_t checks = 0;        ///< isSatisfied evaluations
    std::uint64_t violations = 0;
    std::uint64_t restores = 0;      ///< variables restored

    // Queue-pressure accounting (always on; maintained by the scheduler).
    std::uint64_t agenda_high_water = 0;  ///< max total queue depth seen
    std::array<std::uint64_t, kTrackedPriorities> scheduled_by_priority{};
    std::array<std::uint64_t, kTrackedPriorities> executed_by_priority{};
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  Stats& mutable_stats() { return stats_; }

  // ---- observability ------------------------------------------------------
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  /// Hot-path guard: is structured tracing on?  (One inlined bool load.)
  bool tracing() const { return tracer_.enabled(); }
  /// Hot-path guard for instrumentation that feeds either subsystem.
  bool observing() const { return tracer_.enabled() || metrics_.enabled(); }

  /// Depth-pooled scratch buffers for constraint fan-out snapshots
  /// (internal, used by Variable::propagate_to_constraints): re-entrant
  /// propagation borrows one buffer per recursion depth; capacities persist,
  /// so steady-state fan-out copies allocate nothing.  Every borrow must be
  /// matched by exactly one release.
  std::vector<Propagatable*>& borrow_fanout_scratch();
  void release_fanout_scratch();

 private:
  friend class Variable;

  Status run_session_impl(Status (*invoke)(void*), void* body);
  void adopt(std::unique_ptr<Constraint> c);

  /// One undo-trail slot: a visited variable and its pre-change state.
  /// Slots are reused across sessions (trail_size_ is the live prefix), so
  /// Value/Justification capacities stay warm.
  struct TrailEntry {
    Variable* var = nullptr;
    Value value;
    Justification justification;
  };

  bool enabled_ = true;
  bool in_propagation_ = false;
  int max_changes_per_variable_ = 1;

  /// Owned constraints in creation order, each at the slot it records.  A
  /// destroyed one leaves a null slot; trailing nulls are dropped, and the
  /// rest are squeezed out once they outnumber the live constraints.
  std::vector<std::unique_ptr<Constraint>> constraints_;
  std::size_t live_constraints_ = 0;
  AgendaScheduler agenda_;

  /// Current session stamp; a Variable/Propagatable whose visit_epoch_
  /// equals it is "in the visited dictionary".  Globally unique.
  std::uint64_t epoch_;
  std::vector<TrailEntry> trail_;
  std::size_t trail_size_ = 0;
  std::vector<Propagatable*> visited_constraints_;

  std::vector<std::unique_ptr<std::vector<Propagatable*>>> fanout_pool_;
  std::size_t fanout_depth_ = 0;

  std::optional<ViolationInfo> last_violation_;
  ViolationHandler violation_handler_;
  std::deque<std::string> violation_log_;
  std::size_t violation_log_limit_ = 256;
  std::uint64_t violation_log_dropped_ = 0;

  Stats stats_;
  Tracer tracer_;
  MetricsRegistry metrics_;
};

}  // namespace stemcp::core
