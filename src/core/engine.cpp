#include "core/engine.h"

#include <stdexcept>

#include "core/constraint.h"
#include "core/variable.h"

namespace stemcp::core {

PropagationContext::PropagationContext() : epoch_(next_global_stamp()) {
  agenda_.bind_instrumentation(
      &stats_.scheduled_runs, &stats_.agenda_high_water,
      stats_.scheduled_by_priority.data(),
      stats_.executed_by_priority.data(), Stats::kTrackedPriorities, &tracer_,
      &metrics_);
}

PropagationContext::~PropagationContext() {
  // Fold this context's lifetime totals into the process-global registry so
  // benchmark binaries can emit one aggregate stats JSON per run (see
  // bench/bench_support.h).
  MetricsRegistry totals;
  totals.add_counter("ctx.contexts", 1);
  totals.add_counter("ctx.sessions", stats_.sessions);
  totals.add_counter("ctx.assignments", stats_.assignments);
  totals.add_counter("ctx.activations", stats_.activations);
  totals.add_counter("ctx.scheduled_runs", stats_.scheduled_runs);
  totals.add_counter("ctx.checks", stats_.checks);
  totals.add_counter("ctx.violations", stats_.violations);
  totals.add_counter("ctx.restores", stats_.restores);
  totals.histogram("ctx.agenda_high_water").record(stats_.agenda_high_water);
  for (std::size_t i = 0; i < Stats::kTrackedPriorities; ++i) {
    totals.add_counter("ctx.scheduled.p" + std::to_string(i),
                       stats_.scheduled_by_priority[i]);
    totals.add_counter("ctx.executed.p" + std::to_string(i),
                       stats_.executed_by_priority[i]);
  }
  totals.merge(metrics_);
  merge_into_global_metrics(totals);
}

std::vector<Constraint*> PropagationContext::all_constraints() const {
  std::vector<Constraint*> out;
  out.reserve(live_constraints_);
  for (const auto& c : constraints_) {
    if (c != nullptr) out.push_back(c.get());
  }
  return out;
}

void PropagationContext::adopt(std::unique_ptr<Constraint> c) {
  c->slot_ = constraints_.size();
  constraints_.push_back(std::move(c));
  ++live_constraints_;
}

void PropagationContext::destroy_constraint(Constraint& c) {
  // Refuse a constraint of another context before touching it.
  const std::size_t slot = c.slot_;
  if (slot >= constraints_.size() || constraints_[slot].get() != &c) {
    throw std::logic_error("destroy_constraint: not owned by this context");
  }
  if (tracing()) {
    tracer_.emit(TraceEventType::kNetworkEdit, "destroy " + c.describe(), &c);
  }
  // Collect every variable whose value transitively depends on this
  // constraint, before breaking any link.
  DependencyTrace trace;
  for (Variable* arg : c.arguments()) {
    if (arg->last_set_by().constraint() == &c) arg->consequences(trace);
  }
  // Detach from all arguments.
  const auto args = c.arguments();
  for (Variable* arg : args) {
    c.detach_argument_raw(*arg);
    arg->detach(c);
  }
  // Erase the now-unjustified values.
  for (const Variable* v : trace.variables) {
    const_cast<Variable*>(v)->reset_raw();
  }
  // Release the slot; `c` is deleted on return.
  const std::unique_ptr<Constraint> victim = std::move(constraints_[slot]);
  --live_constraints_;
  while (!constraints_.empty() && constraints_.back() == nullptr) {
    constraints_.pop_back();
  }
  if (constraints_.size() > 2 * live_constraints_) {
    std::size_t kept = 0;
    for (std::unique_ptr<Constraint>& p : constraints_) {
      if (p == nullptr) continue;
      p->slot_ = kept;
      if (&constraints_[kept] != &p) constraints_[kept] = std::move(p);
      ++kept;
    }
    constraints_.resize(kept);
  }
}

Status PropagationContext::run_session_impl(Status (*invoke)(void*),
                                            void* body) {
  if (in_propagation_) {
    throw std::logic_error("nested propagation session");
  }
  in_propagation_ = true;
  ++stats_.sessions;
  // A fresh epoch invalidates every variable/constraint stamp at once — the
  // O(size) map clears of the old visited dictionary become O(1).
  epoch_ = next_global_stamp();
  trail_size_ = 0;
  visited_constraints_.clear();
  agenda_.clear();
  last_violation_.reset();

  if (tracing()) tracer_.emit(TraceEventType::kSessionBegin, "");

  Status s = invoke(body);
  if (s.is_ok()) s = drain_agendas();
  if (s.is_ok()) s = check_visited_constraints();

  if (s.is_violation()) {
    ++stats_.violations;
    if (last_violation_) {
      // Invoke the violated constraint's handler (thesis §4.2.3); the
      // default reports through the context.
      auto* source = const_cast<Propagatable*>(last_violation_->constraint);
      if (source != nullptr) {
        source->on_violation(*last_violation_, *this);
      } else {
        report_violation(*last_violation_);
      }
    }
    restore_visited();
  }
  in_propagation_ = false;

  if (tracing()) {
    tracer_.emit(TraceEventType::kSessionEnd,
                 s.is_violation() ? "violation" : "ok");
  }
  return s.is_violation() ? Status::violation() : Status::ok();
}

bool PropagationContext::was_visited(const Variable& v) const {
  return v.visit_epoch_ == epoch_;
}

void PropagationContext::record_visited(Variable& v) {
  if (v.visit_epoch_ == epoch_) return;  // putIfAbsent
  v.visit_epoch_ = epoch_;
  v.session_changes_ = 0;
  // Reuse a retired trail slot when one exists: assigning into the old
  // Value/Justification keeps their heap capacity warm, so steady-state
  // sessions do not allocate here.
  if (trail_size_ < trail_.size()) {
    TrailEntry& slot = trail_[trail_size_];
    slot.var = &v;
    slot.value = v.value();
    slot.justification = v.last_set_by();
  } else {
    trail_.push_back(TrailEntry{&v, v.value(), v.last_set_by()});
  }
  ++trail_size_;
}

bool PropagationContext::may_change_again(const Variable& v) const {
  if (v.visit_epoch_ != epoch_) return true;
  return v.session_changes_ < max_changes_per_variable_;
}

void PropagationContext::count_change(Variable& v) {
  if (v.visit_epoch_ == epoch_) ++v.session_changes_;
}

void PropagationContext::mark_visited(Propagatable& c) {
  if (c.visit_epoch_ == epoch_) return;
  c.visit_epoch_ = epoch_;
  visited_constraints_.push_back(&c);
}

void PropagationContext::restore_visited() {
  const bool traced = tracing();
  for (std::size_t i = 0; i < trail_size_; ++i) {
    TrailEntry& slot = trail_[i];
    if (traced) {
      tracer_.emit(TraceEventType::kRestore, slot.var->path(), slot.var);
    }
    slot.var->store(slot.value, slot.justification);
    ++stats_.restores;
  }
}

std::vector<Propagatable*>& PropagationContext::borrow_fanout_scratch() {
  if (fanout_depth_ == fanout_pool_.size()) {
    fanout_pool_.push_back(std::make_unique<std::vector<Propagatable*>>());
  }
  return *fanout_pool_[fanout_depth_++];
}

void PropagationContext::release_fanout_scratch() { --fanout_depth_; }

Status PropagationContext::signal_violation(ViolationInfo info) {
  if (!last_violation_) {
    if (tracing()) {
      tracer_.emit(TraceEventType::kViolation, info.message,
                   info.constraint);
    }
    last_violation_ = std::move(info);
  }
  return Status::violation();
}

void PropagationContext::report_violation(const ViolationInfo& info) {
  violation_log_.push_back(info.to_string());
  while (violation_log_.size() > violation_log_limit_) {
    violation_log_.pop_front();
    ++violation_log_dropped_;
  }
  if (violation_handler_) violation_handler_(info);
}

void PropagationContext::set_violation_log_limit(std::size_t limit) {
  violation_log_limit_ = limit < 1 ? 1 : limit;
  while (violation_log_.size() > violation_log_limit_) {
    violation_log_.pop_front();
    ++violation_log_dropped_;
  }
}

Status PropagationContext::check_visited_constraints() {
  // The final sweep (thesis Fig 4.6): isSatisfied is sent to every visited
  // constraint.  Implicit-constraint scheduling may mark more constraints
  // visited while checking does not, so a simple index loop suffices.
  const bool observed = observing();
  for (std::size_t i = 0; i < visited_constraints_.size(); ++i) {
    Propagatable* c = visited_constraints_[i];
    ++stats_.checks;
    bool ok;
    if (observed) {
      const std::uint64_t t0 = Tracer::now_ns();
      ok = c->is_satisfied();
      const std::uint64_t dt = Tracer::now_ns() - t0;
      if (tracing()) {
        tracer_.emit(TraceEventType::kCheck, c->describe(), c, dt);
      }
      if (metrics_.enabled()) {
        if (c->check_hist_ == nullptr ||
            c->check_hist_gen_ != metrics_.generation()) {
          c->check_hist_ =
              metrics_.histogram_handle("check_ns." + c->type_name());
          c->check_hist_gen_ = metrics_.generation();
        }
        c->check_hist_->record(dt);
      }
    } else {
      ok = c->is_satisfied();
    }
    if (!ok) {
      return signal_violation(
          {c, nullptr, Value::nil(),
           "constraint unsatisfied after propagation: " + c->describe()});
    }
  }
  return Status::ok();
}

}  // namespace stemcp::core
