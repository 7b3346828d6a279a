// FD module selection (thesis ch. 8 through domain pruning; docs/SOLVER.md).
//
// Generate-and-test (`CellClass::valid_realizations_for`) instantiates every
// candidate test as a full propagation probe (`can_be_set_to`: assign,
// propagate, restore).  A SelectionSpace instead builds one set-domain
// variable per generic slot whose universe is the slot's non-generic
// candidate realizations ordered by the §8 cost heuristic (smallest area
// first, then smallest delay), and prunes it with filters derived from the
// slot's context: the bbox/signal checks the paper already treats as cheap,
// plus an arithmetic delay-slack filter that folds each candidate's
// context-adjusted delay through the parent's delay-network paths against
// the declared BoundConstraint budgets.  Only the bbox check of an
// unplaced slot probes (`can_be_set_to` on the default placement, one
// engine session and a restore); a placed slot's candidates cost no
// propagation probe.  Generic subtrees are pruned wholesale exactly like the
// Fig 8.3 walk: a generic that fails the filters removes all its
// descendants at the cost of one test.  Multi-slot interaction is handled
// by a cross-slot propagator that re-filters the remaining slots whenever
// one slot's domain collapses to a single candidate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fd/solver.h"

namespace stemcp::env {
class CellClass;
class CellInstance;
class Library;
}  // namespace stemcp::env

namespace stemcp::fd {

class SelectionSpace {
 public:
  struct Stats {
    std::uint64_t candidates_explored = 0;  ///< realization tests (establish + re-filter)
    std::uint64_t subtrees_pruned = 0;      ///< generic failures that cut a subtree
    std::uint64_t nodes = 0;                ///< search nodes
    std::uint64_t fails = 0;                ///< search dead ends
    std::uint64_t solutions = 0;
  };

  struct Slot {
    env::CellClass* generic = nullptr;
    env::CellInstance* instance = nullptr;
    std::vector<env::CellClass*> candidates;  ///< domain universe, cost order
    DomainVariable* var = nullptr;
  };

  explicit SelectionSpace(env::Library& lib) : library_(&lib) {}

  /// Register a selection slot: realize `inst` from the subtree of
  /// `generic`.  Call establish() after all slots are added.
  void add_slot(env::CellClass& generic, env::CellInstance& inst);

  /// Walk each slot's generic tree with the static filters, building the
  /// candidate domains; returns false when some slot has no candidate left
  /// (selection infeasible).  Priorities are the is_valid_realization_for
  /// test symbols ("bBox", "signals", "delays"); empty = all three.
  bool establish(const std::vector<std::string>& priorities = {});

  /// MRV search for complete assignments (one candidate per slot honouring
  /// the cross-slot delay budgets); solutions are recorded in cost order.
  /// Returns the number found (up to max_solutions; 0 = all).
  std::size_t solve(std::size_t max_solutions = 1);

  const std::vector<Slot>& slots() const { return slots_; }
  /// Each solution is one CellClass* per slot, in add_slot order.
  const std::vector<std::vector<env::CellClass*>>& solutions() const {
    return solutions_;
  }
  const Stats& stats() const { return stats_; }
  Problem& problem() { return problem_; }

  /// Commit one solution: replace every slot instance with its selected
  /// realization and rebuild the parent delay networks.  Returns the new
  /// instances (slot order).
  std::vector<env::CellInstance*> commit(std::size_t solution_index);

 private:
  friend class CrossSlotFilter;

  /// One candidate test: static bbox/signal checks + delay-slack
  /// arithmetic.  `priorities` mirrors is_valid_realization_for's symbols.
  bool candidate_ok(env::CellClass& cand, env::CellInstance& inst,
                    const std::vector<std::string>& priorities,
                    std::size_t fixed_mask);
  bool delay_feasible(env::CellClass& cand, env::CellInstance& inst,
                      std::size_t fixed_mask);

  env::Library* library_;
  Problem problem_;
  std::vector<Slot> slots_;
  std::vector<std::string> priorities_;
  std::vector<std::vector<env::CellClass*>> solutions_;
  Stats stats_;
  bool established_ = false;
};

}  // namespace stemcp::fd
