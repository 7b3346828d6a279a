// The finite-domain fixpoint engine and backtracking search (docs/SOLVER.md).
//
// A Problem owns DomainVariables (each wrapping a fd::Domain) and
// Propagators (domain-reduction functions in Apt's chaotic-iteration sense,
// PAPERS.md).  Propagators subclass core::Propagatable so they run through
// the engine's one fixpoint loop, core::AgendaScheduler::drain — same
// interned queues, same per-task epoch duplicate suppression, same fixed
// priority drain — with FD cost tiers (unary / binary / linear / global) as
// the agenda names.  Mutations go through the Problem, which saves the
// pre-change domain on a trail (first touch per decision level only,
// mirroring the engine's visited trail), dispatches the event set to
// subscribed watchers, and latches a failed() flag on wipeout; the
// propagator then answers a violation, which stops the drain.
//
// Search is depth-first with MRV variable ordering (smallest remaining set
// domain first) and ascending-index value ordering — universes are
// pre-sorted by the paper's §8 cost heuristics by the layer that builds
// them — with trail-based undo and early failure on domain wipeout.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/agenda.h"
#include "core/propagatable.h"
#include "fd/domain.h"

namespace stemcp::fd {

class Problem;
class Propagator;

/// FD agenda names, drained in this order (cheapest filters first, the
/// Schulte & Stuckey cost-tier discipline).
inline constexpr const char* kFdUnaryAgenda = "fd.unary";
inline constexpr const char* kFdBinaryAgenda = "fd.binary";
inline constexpr const char* kFdLinearAgenda = "fd.linear";
inline constexpr const char* kFdGlobalAgenda = "fd.global";

class DomainVariable {
 public:
  DomainVariable(std::string name, Domain d)
      : name_(std::move(name)), domain_(std::move(d)) {}

  const std::string& name() const { return name_; }
  const Domain& domain() const { return domain_; }
  std::size_t id() const { return id_; }

  bool fixed() const { return domain_.fixed(); }
  bool empty() const { return domain_.empty(); }

 private:
  friend class Problem;

  std::string name_;
  Domain domain_;
  std::size_t id_ = 0;
  /// Decision level under which the current trail entry was saved; a
  /// mutation at the same level needs no second save.
  std::uint64_t saved_level_ = ~std::uint64_t{0};
  std::vector<std::pair<Propagator*, EventSet>> watchers_;
};

/// A domain-reduction function.  Rides the core agenda machinery via
/// Propagatable; the core::Variable-flavoured entry points are inert (FD
/// propagators are scheduled with a null variable and re-filter from all
/// their domains, like functional constraints recompute from all inputs).
class Propagator : public core::Propagatable {
 public:
  Propagator(Problem& p, const char* agenda);

  /// Shrink domains through the Problem mutators.  Wipeouts latch
  /// Problem::failed(); filter() may return early once that happens, and
  /// propagate_scheduled() then answers a violation.
  virtual void filter() = 0;

  Problem& problem() const { return *problem_; }
  const char* agenda_name() const { return agenda_; }

  // ---- core::Propagatable plumbing ---------------------------------------
  core::Status propagate_variable(core::Variable&) override {
    return core::Status::ok();
  }
  core::Status propagate_scheduled(core::Variable*) override;
  bool is_satisfied() const override { return true; }
  std::string describe() const override {
    return "fd propagator (" + type_name() + ")";
  }
  std::string type_name() const override { return "fd.propagator"; }

 private:
  Problem* problem_;
  const char* agenda_;
};

class Problem {
 public:
  struct Stats {
    std::uint64_t filter_runs = 0;  ///< propagator runs (by the drain)
    std::uint64_t prunings = 0;     ///< mutations that shrank a domain
    std::uint64_t wipeouts = 0;     ///< domains emptied
  };

  Problem();
  ~Problem();

  Problem(const Problem&) = delete;
  Problem& operator=(const Problem&) = delete;

  // ---- variables ----------------------------------------------------------
  DomainVariable& add_variable(std::string name, Domain d);
  DomainVariable& add_set_variable(std::string name, std::size_t n) {
    return add_variable(std::move(name), Domain::all_of(n));
  }
  DomainVariable& add_interval_variable(std::string name, double lo,
                                        double hi) {
    return add_variable(std::move(name), Domain::interval(lo, hi));
  }
  const std::vector<std::unique_ptr<DomainVariable>>& variables() const {
    return variables_;
  }

  // ---- propagators --------------------------------------------------------
  template <typename T, typename... Args>
  T& make(Args&&... args) {
    auto owned = std::make_unique<T>(*this, std::forward<Args>(args)...);
    T& ref = *owned;
    propagators_.push_back(std::move(owned));
    return ref;
  }
  /// Wake p whenever one of events fires on v.
  void subscribe(DomainVariable& v, Propagator& p, EventSet events);
  /// Queue p on its cost-tier agenda (duplicate-suppressed).
  void schedule(Propagator& p);
  std::size_t propagator_count() const { return propagators_.size(); }

  // ---- domain mutation (trail + event dispatch) ---------------------------
  /// Each returns false when the mutation wiped the domain out (failed() is
  /// latched); no-ops return true without waking anyone.
  bool remove(DomainVariable& v, std::size_t idx);
  bool bind(DomainVariable& v, std::size_t idx);
  bool clamp_lo(DomainVariable& v, double lo);
  bool clamp_hi(DomainVariable& v, double hi);
  bool bind_value(DomainVariable& v, double value);

  bool failed() const { return failed_; }
  void clear_failed() { failed_ = false; }

  // ---- fixpoint -----------------------------------------------------------
  /// Drain the agendas to a fixpoint (core::AgendaScheduler::drain); false
  /// on wipeout (remaining queue entries are discarded).
  bool propagate();
  /// Schedule every propagator, then drain — establishes the initial
  /// arc-consistent state.
  bool propagate_all();

  // ---- trail (backtracking) -----------------------------------------------
  struct Mark {
    std::size_t trail_size = 0;
    std::uint64_t level = 0;
  };
  /// Open a new decision level; undo_to(mark) restores every domain touched
  /// since.  Levels are stamped from a monotonic counter, so a re-opened
  /// level can never alias an undone one.
  Mark mark();
  void undo_to(const Mark& m);

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  void save(DomainVariable& v);
  /// Route a mutation outcome: account stats, dispatch events, latch
  /// failure.  Returns !wipeout.
  bool after_mutation(DomainVariable& v, EventSet events);

  core::AgendaScheduler scheduler_;
  std::vector<std::unique_ptr<DomainVariable>> variables_;
  std::vector<std::unique_ptr<Propagator>> propagators_;

  struct TrailEntry {
    DomainVariable* var = nullptr;
    Domain saved;
    std::uint64_t prev_level = 0;
  };
  std::vector<TrailEntry> trail_;
  std::uint64_t level_ = 0;
  std::uint64_t level_counter_ = 0;

  bool failed_ = false;
  Stats stats_;
};

/// Depth-first search over the problem's unfixed set variables: MRV
/// ordering, ascending-index values, trail-based undo, early failure on
/// wipeout.  Interval variables are never branched on — they are pruned by
/// propagation and simply retain their final bounds in a solution.
class Search {
 public:
  struct Options {
    std::size_t max_solutions = 1;  ///< stop after this many; 0 = all
    std::uint64_t max_nodes = 0;    ///< abandon after this many nodes; 0 = no cap
  };
  struct Stats {
    std::uint64_t nodes = 0;
    std::uint64_t fails = 0;
    std::uint64_t solutions = 0;
    std::uint64_t max_depth = 0;
  };

  explicit Search(Problem& p) : problem_(&p) {}

  /// Run to the first / the requested number of solutions.  on_solution is
  /// invoked with all set variables fixed; return false from it to stop the
  /// search.  Returns true when at least one solution was found.
  bool solve(const Options& opts, const std::function<bool()>& on_solution);
  bool solve_first() {
    return solve(Options{}, [] { return false; });
  }

  const Stats& stats() const { return stats_; }

 private:
  bool dfs(const Options& opts, const std::function<bool()>& on_solution,
           std::uint64_t depth, bool& stop);
  DomainVariable* pick_mrv() const;

  Problem* problem_;
  Stats stats_;
};

// ---- basic set propagators (classic CSP networks) --------------------------

/// x != y + offset over two set variables whose indices are the values —
/// the n-queens / graph-coloring disequality (offset 0 for coloring, the
/// row distance for queens diagonals).  Wakes on kEventValue only.
class NotEqualOffsetPropagator : public Propagator {
 public:
  NotEqualOffsetPropagator(Problem& p, DomainVariable& x, DomainVariable& y,
                           long long offset);

  void filter() override;
  std::string type_name() const override { return "fd.notEqualOffset"; }

 private:
  DomainVariable* x_;
  DomainVariable* y_;
  long long offset_;
};

}  // namespace stemcp::fd
