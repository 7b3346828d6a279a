#include "core/agenda.h"

#include <algorithm>

#include "core/propagatable.h"
#include "core/trace.h"

namespace stemcp::core {

AgendaScheduler::AgendaScheduler()
    : epoch_(next_global_stamp()), generation_(next_global_stamp()) {
  // Deviation from thesis §5.1.2, which puts #implicitConstraints at the
  // LOWEST priority: that ordering lets a functional constraint recompute
  // between the implicit updates of its own inputs, so re-characterizing a
  // cell that appears k times along one delay path changes the path sum k
  // times — tripping the one-value-change rule the thesis also prescribes.
  // Draining the implicit agenda FIRST lets every dual of a changed class
  // variable settle before dependent functional constraints run, and each
  // variable changes exactly once per session on tree-structured networks.
  // See EXPERIMENTS.md, deviation 6.
  set_priority_order({kImplicitConstraintsAgenda,
                      kFunctionalConstraintsAgenda});
}

void AgendaScheduler::set_priority_order(std::vector<std::string> names) {
  order_ = std::move(names);
  queues_.clear();
  queues_.reserve(order_.size());
  for (const auto& n : order_) queues_.push_back(Queue{n, {}, 0});
  // Every interned id and every queued-entry stamp is now stale.
  generation_ = next_global_stamp();
  epoch_ = next_global_stamp();
}

AgendaScheduler::AgendaId AgendaScheduler::intern(std::string_view name) {
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    if (queues_[i].name == name) return static_cast<AgendaId>(i);
  }
  // Unknown agendas are appended at the lowest priority.  Existing ids keep
  // their meaning, so the generation does not move.
  order_.emplace_back(name);
  queues_.push_back(Queue{std::string(name), {}, 0});
  return static_cast<AgendaId>(queues_.size() - 1);
}

void AgendaScheduler::bind_instrumentation(std::uint64_t* runs,
                                           std::uint64_t* high_water,
                                           std::uint64_t* scheduled_by_priority,
                                           std::uint64_t* executed_by_priority,
                                           std::size_t tracked_priorities,
                                           Tracer* tracer,
                                           MetricsRegistry* metrics) {
  runs_ = runs;
  high_water_ = high_water;
  scheduled_ = scheduled_by_priority;
  executed_ = executed_by_priority;
  tracked_priorities_ = tracked_priorities;
  tracer_ = tracer;
  metrics_ = metrics;
  for (Queue& q : queues_) {
    q.depth_hist = nullptr;
    q.depth_hist_gen = 0;
  }
}

bool AgendaScheduler::schedule_cached(Propagatable& task, const char* name,
                                      Variable* variable) {
  if (task.agenda_cache_gen_ != generation_ ||
      task.agenda_cache_name_ != name) {
    task.agenda_cache_id_ = intern(name);
    task.agenda_cache_gen_ = generation_;
    task.agenda_cache_name_ = name;
  }
  return schedule(task.agenda_cache_id_, task, variable);
}

bool AgendaScheduler::schedule(AgendaId agenda, Propagatable& task,
                               Variable* variable) {
  const std::size_t pri = agenda;
  Queue& q = queues_[pri];
  // Duplicate suppression without a per-queue set: the task carries the
  // (queue, variable) pairs currently queued for it, valid only while its
  // stamp matches this scheduler's epoch.
  if (task.sched_epoch_ != epoch_) {
    task.sched_epoch_ = epoch_;
    task.queued_.clear();
  } else {
    for (const auto& [qid, var] : task.queued_) {
      if (qid == agenda && var == variable) return false;
    }
  }
  task.queued_.emplace_back(agenda, variable);
  q.fifo.push_back(Entry{&task, variable});

  // Always-on queue-pressure accounting (cheap: two compares, one store).
  if (scheduled_ != nullptr && tracked_priorities_ > 0) {
    ++scheduled_[std::min(pri, tracked_priorities_ - 1)];
  }
  if (high_water_ != nullptr) {
    const std::size_t depth = size();
    if (depth > *high_water_) *high_water_ = depth;
  }

  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->emit(TraceEventType::kAgendaSchedule, task.describe(), &task, 0,
                  static_cast<std::uint8_t>(std::min<std::size_t>(pri, 255)));
  }
  if (metrics_ != nullptr && metrics_->enabled()) {
    if (q.depth_hist == nullptr ||
        q.depth_hist_gen != metrics_->generation()) {
      q.depth_hist =
          metrics_->histogram_handle("agenda_depth.p" + std::to_string(pri));
      q.depth_hist_gen = metrics_->generation();
    }
    q.depth_hist->record(size());
  }
  return true;
}

std::optional<AgendaScheduler::Entry> AgendaScheduler::pop_highest_priority() {
  for (std::size_t pri = 0; pri < queues_.size(); ++pri) {
    Queue& q = queues_[pri];
    if (q.empty()) continue;
    Entry e = q.fifo[q.head++];
    // Un-mark the popped entry so the task may be re-scheduled within the
    // same session (swap-remove; FIFO order lives in q.fifo, not here).
    if (e.task->sched_epoch_ == epoch_) {
      auto& queued = e.task->queued_;
      for (auto it = queued.begin(); it != queued.end(); ++it) {
        if (it->first == pri && it->second == e.variable) {
          *it = queued.back();
          queued.pop_back();
          break;
        }
      }
    }
    if (q.empty()) {
      q.fifo.clear();
      q.head = 0;
    }
    last_popped_priority_ = pri;
    if (executed_ != nullptr && tracked_priorities_ > 0) {
      ++executed_[std::min(pri, tracked_priorities_ - 1)];
    }
    return e;
  }
  return std::nullopt;
}

Status AgendaScheduler::drain() {
  while (auto entry = pop_highest_priority()) {
    if (runs_ != nullptr) ++*runs_;
    Propagatable& task = *entry->task;
    const bool traced = tracer_ != nullptr && tracer_->enabled();
    const bool timed = metrics_ != nullptr && metrics_->enabled();
    const std::uint64_t t0 = traced || timed ? Tracer::now_ns() : 0;
    const Status s = task.propagate_scheduled(entry->variable);
    const std::uint64_t dt = traced || timed ? Tracer::now_ns() - t0 : 0;
    if (traced) {
      tracer_->emit(TraceEventType::kAgendaPop, task.describe(), &task, dt,
                    static_cast<std::uint8_t>(
                        std::min<std::size_t>(last_popped_priority_, 255)));
    }
    if (timed) {
      if (task.run_hist_ == nullptr ||
          task.run_hist_gen_ != metrics_->generation()) {
        task.run_hist_ =
            metrics_->histogram_handle("run_ns." + task.type_name());
        task.run_hist_gen_ = metrics_->generation();
      }
      task.run_hist_->record(dt);
    }
    if (s.is_violation()) return s;
  }
  return Status::ok();
}

bool AgendaScheduler::empty() const {
  return std::all_of(queues_.begin(), queues_.end(),
                     [](const Queue& q) { return q.empty(); });
}

std::size_t AgendaScheduler::size() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.fifo.size() - q.head;
  return n;
}

void AgendaScheduler::clear() {
  for (auto& q : queues_) {
    q.fifo.clear();
    q.head = 0;
  }
  // One stamp invalidates every task's queued-entry list at once.
  epoch_ = next_global_stamp();
}

}  // namespace stemcp::core
