#include "fd/solver.h"

namespace stemcp::fd {

// ---- Propagator -------------------------------------------------------------

Propagator::Propagator(Problem& p, const char* agenda)
    : problem_(&p), agenda_(agenda) {}

core::Status Propagator::propagate_scheduled(core::Variable*) {
  filter();
  return problem_->failed() ? core::Status::violation() : core::Status::ok();
}

// ---- Problem ----------------------------------------------------------------

Problem::Problem() {
  scheduler_.set_priority_order(
      {kFdUnaryAgenda, kFdBinaryAgenda, kFdLinearAgenda, kFdGlobalAgenda});
  scheduler_.bind_instrumentation(&stats_.filter_runs, nullptr, nullptr,
                                  nullptr, 0, nullptr, nullptr);
}

Problem::~Problem() = default;

DomainVariable& Problem::add_variable(std::string name, Domain d) {
  auto owned = std::make_unique<DomainVariable>(std::move(name), std::move(d));
  owned->id_ = variables_.size();
  DomainVariable& ref = *owned;
  variables_.push_back(std::move(owned));
  return ref;
}

void Problem::subscribe(DomainVariable& v, Propagator& p, EventSet events) {
  v.watchers_.emplace_back(&p, events);
}

void Problem::schedule(Propagator& p) {
  scheduler_.schedule_cached(p, p.agenda_name(), nullptr);
}

void Problem::save(DomainVariable& v) {
  if (v.saved_level_ == level_) return;
  trail_.push_back({&v, v.domain_, v.saved_level_});
  v.saved_level_ = level_;
}

bool Problem::after_mutation(DomainVariable& v, EventSet events) {
  if (events == kEventNone) return true;
  ++stats_.prunings;
  if (events & kEventWipeout) {
    ++stats_.wipeouts;
    failed_ = true;
    return false;
  }
  for (auto& [watcher, mask] : v.watchers_) {
    if (mask & events) schedule(*watcher);
  }
  return true;
}

bool Problem::remove(DomainVariable& v, std::size_t idx) {
  save(v);
  return after_mutation(v, v.domain_.remove(idx));
}

bool Problem::bind(DomainVariable& v, std::size_t idx) {
  save(v);
  return after_mutation(v, v.domain_.bind(idx));
}

bool Problem::clamp_lo(DomainVariable& v, double lo) {
  save(v);
  return after_mutation(v, v.domain_.clamp_lo(lo));
}

bool Problem::clamp_hi(DomainVariable& v, double hi) {
  save(v);
  return after_mutation(v, v.domain_.clamp_hi(hi));
}

bool Problem::bind_value(DomainVariable& v, double value) {
  save(v);
  return after_mutation(v, v.domain_.bind_value(value));
}

bool Problem::propagate() {
  if (!failed_ && scheduler_.drain().is_ok()) return true;
  scheduler_.clear();
  return false;
}

bool Problem::propagate_all() {
  for (auto& p : propagators_) schedule(*p);
  return propagate();
}

Problem::Mark Problem::mark() {
  Mark m{trail_.size(), level_};
  level_ = ++level_counter_;
  return m;
}

void Problem::undo_to(const Mark& m) {
  while (trail_.size() > m.trail_size) {
    TrailEntry& e = trail_.back();
    e.var->domain_ = std::move(e.saved);
    e.var->saved_level_ = e.prev_level;
    trail_.pop_back();
  }
  level_ = m.level;
  failed_ = false;
  scheduler_.clear();
}

// ---- Search -----------------------------------------------------------------

DomainVariable* Search::pick_mrv() const {
  DomainVariable* best = nullptr;
  std::size_t best_count = 0;
  for (auto& v : problem_->variables()) {
    if (!v->domain().is_set() || v->domain().fixed()) continue;
    const std::size_t c = v->domain().count();
    if (best == nullptr || c < best_count) {
      best = v.get();
      best_count = c;
    }
  }
  return best;
}

bool Search::solve(const Options& opts,
                   const std::function<bool()>& on_solution) {
  stats_ = {};
  bool stop = false;
  dfs(opts, on_solution, 0, stop);
  return stats_.solutions > 0;
}

bool Search::dfs(const Options& opts,
                 const std::function<bool()>& on_solution,
                 std::uint64_t depth, bool& stop) {
  if (problem_->failed()) return false;
  DomainVariable* var = pick_mrv();
  if (var == nullptr) {
    ++stats_.solutions;
    if (!on_solution()) stop = true;
    if (opts.max_solutions != 0 && stats_.solutions >= opts.max_solutions) {
      stop = true;
    }
    return true;
  }
  // Snapshot the candidate order; the domain shrinks under our feet as
  // sibling branches propagate.
  std::vector<std::size_t> values;
  values.reserve(var->domain().count());
  var->domain().for_each([&](std::size_t idx) { values.push_back(idx); });
  bool found = false;
  for (std::size_t idx : values) {
    if (stop) break;
    if (opts.max_nodes != 0 && stats_.nodes >= opts.max_nodes) {
      stop = true;
      break;
    }
    ++stats_.nodes;
    if (depth + 1 > stats_.max_depth) stats_.max_depth = depth + 1;
    const Problem::Mark m = problem_->mark();
    if (problem_->bind(*var, idx) && problem_->propagate()) {
      found = dfs(opts, on_solution, depth + 1, stop) || found;
    } else {
      ++stats_.fails;
    }
    problem_->undo_to(m);
  }
  return found;
}

// ---- NotEqualOffsetPropagator ----------------------------------------------

NotEqualOffsetPropagator::NotEqualOffsetPropagator(Problem& p,
                                                   DomainVariable& x,
                                                   DomainVariable& y,
                                                   long long offset)
    : Propagator(p, kFdBinaryAgenda), x_(&x), y_(&y), offset_(offset) {
  p.subscribe(x, *this, kEventValue);
  p.subscribe(y, *this, kEventValue);
}

void NotEqualOffsetPropagator::filter() {
  Problem& p = problem();
  if (x_->domain().fixed()) {
    const long long forbidden =
        static_cast<long long>(x_->domain().value_index()) - offset_;
    if (forbidden >= 0 &&
        y_->domain().contains(static_cast<std::size_t>(forbidden))) {
      if (!p.remove(*y_, static_cast<std::size_t>(forbidden))) return;
    }
  }
  if (y_->domain().fixed()) {
    const long long forbidden =
        static_cast<long long>(y_->domain().value_index()) + offset_;
    if (forbidden >= 0 &&
        x_->domain().contains(static_cast<std::size_t>(forbidden))) {
      p.remove(*x_, static_cast<std::size_t>(forbidden));
    }
  }
}

}  // namespace stemcp::fd
