// Agenda scheduler (thesis §4.2.1): named first-in-first-out queues without
// duplicate entries, drained in fixed priority order.  drain() is the one
// fixpoint loop: the value engine (PropagationContext::drain_agendas) and
// the FD solver (fd::Problem::propagate) both run their tasks through it.
// Functional constraints schedule themselves on #functionalConstraints;
// hierarchical propagation adds the #implicitConstraints agenda (§5.1.2),
// drained ahead of the functional agenda here so all duals of a changed
// class variable settle before dependent recomputation (see agenda.cpp for
// the deviation note).
//
// Hot-path design (docs/PERFORMANCE.md): agenda names are interned to small
// integer ids once, duplicate suppression rides on per-task epoch stamps
// instead of a std::set per queue, and the queue-depth histogram is recorded
// through a pre-resolved handle — the steady-state schedule()/pop path
// touches no strings and performs no heap allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace stemcp::core {

class Histogram;
class MetricsRegistry;
class Propagatable;
class Tracer;
class Variable;

/// Well-known agenda names.
inline constexpr const char* kFunctionalConstraintsAgenda =
    "functionalConstraints";
inline constexpr const char* kImplicitConstraintsAgenda =
    "implicitConstraints";

class AgendaScheduler {
 public:
  /// Interned agenda identity: the queue index, which doubles as the
  /// priority (0 = drained first).  Stable until set_priority_order()
  /// rebuilds the table (appending a previously-unknown agenda does NOT
  /// invalidate existing ids).
  using AgendaId = std::uint32_t;

  struct Entry {
    Propagatable* task = nullptr;
    Variable* variable = nullptr;  ///< changed variable; null for functional

    friend auto operator<=>(const Entry&, const Entry&) = default;
  };

  AgendaScheduler();

  /// Priority order, highest first.  Unknown agenda names used in schedule()
  /// are appended at the lowest priority.  Invalidates every interned
  /// AgendaId (generation() changes).
  void set_priority_order(std::vector<std::string> names);
  const std::vector<std::string>& priority_order() const { return order_; }

  /// Resolve an agenda name to its id, appending unknown names at the
  /// lowest priority.  The only string-matching step; callers hold the id.
  AgendaId intern(std::string_view name);
  /// Interning-table generation: ids cached under an older generation must
  /// be re-interned.  Globally unique per scheduler instance and per
  /// set_priority_order() call.
  std::uint64_t generation() const { return generation_; }

  /// `scheduleConstraint:variable:onAgendaNamed:` — returns false if an equal
  /// entry was already queued (duplicate suppression).  A task tracks its
  /// queued entries for one scheduler at a time (the engine binds every task
  /// to exactly one context's scheduler); stamps are globally unique, so a
  /// foreign scheduler's stamp never reads as "already queued" here.
  bool schedule(AgendaId agenda, Propagatable& task, Variable* variable);
  bool schedule(const std::string& agenda, Propagatable& task,
                Variable* variable) {
    return schedule(intern(agenda), task, variable);
  }
  /// Steady-state entry point: resolves and caches the agenda id inside the
  /// task itself (keyed by the name pointer and generation()), so repeat
  /// schedules never touch the string.  `name` should be a long-lived
  /// literal such as kFunctionalConstraintsAgenda.
  bool schedule_cached(Propagatable& task, const char* name,
                       Variable* variable);

  /// `removeHighestPriorityScheduledEntry` — first entry of the highest
  /// priority non-empty agenda.
  std::optional<Entry> pop_highest_priority();
  /// Priority (queue index) of the most recent pop; meaningful only right
  /// after a successful pop_highest_priority().
  std::size_t last_popped_priority() const { return last_popped_priority_; }

  /// The fixpoint loop: pop the highest-priority entry, count it, run it
  /// (propagate_scheduled) until every agenda is empty or a task answers a
  /// violation, which is returned with the remaining entries left queued.
  /// While the bound tracer or metrics observe, each run is timed, traced
  /// as an agenda pop and recorded into "run_ns.<type>".
  Status drain();

  bool empty() const;
  std::size_t size() const;
  void clear();

  // ---- instrumentation ----------------------------------------------------
  /// Observability hookup (owner-bound).  `runs` counts every entry drain()
  /// runs.  `scheduled` / `executed` point at per-priority counter arrays of
  /// `tracked_priorities` slots; overflowing priorities accumulate in the
  /// last slot.  `high_water` tracks the max total queue depth seen.  Any
  /// pointer may be null; tracer/metrics are consulted only when enabled.
  void bind_instrumentation(std::uint64_t* runs, std::uint64_t* high_water,
                            std::uint64_t* scheduled_by_priority,
                            std::uint64_t* executed_by_priority,
                            std::size_t tracked_priorities, Tracer* tracer,
                            MetricsRegistry* metrics);

 private:
  struct Queue {
    std::string name;
    std::vector<Entry> fifo;
    std::size_t head = 0;  // pop index; fifo compacted when drained

    // Pre-resolved "agenda_depth.p<i>" histogram (lazy; re-resolved when the
    // metrics generation moves).
    Histogram* depth_hist = nullptr;
    std::uint64_t depth_hist_gen = 0;

    bool empty() const { return head >= fifo.size(); }
  };

  std::vector<std::string> order_;
  std::vector<Queue> queues_;  // parallel to order_
  std::size_t last_popped_priority_ = 0;

  /// Dedup epoch: entries stamped into a task under an older epoch no
  /// longer count as queued.  Globally unique (next_global_stamp), so a
  /// task touched by two schedulers can never cross-match.
  std::uint64_t epoch_;
  std::uint64_t generation_;

  std::uint64_t* runs_ = nullptr;
  std::uint64_t* high_water_ = nullptr;
  std::uint64_t* scheduled_ = nullptr;
  std::uint64_t* executed_ = nullptr;
  std::size_t tracked_priorities_ = 0;
  Tracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace stemcp::core
