// fd::Problem fixpoint engine + fd::Search: event-directed scheduling over
// the core agenda machinery, trail-based undo, MRV search, and the classic
// CSP stress shapes (n-queens, graph coloring) the ISSUE calls for.
#include <gtest/gtest.h>

#include <algorithm>

#include "fd/solver.h"

namespace stemcp::fd {
namespace {

/// Watches one variable and records how often it was woken.
class CountingPropagator : public Propagator {
 public:
  CountingPropagator(Problem& p, DomainVariable& v, EventSet events)
      : Propagator(p, kFdUnaryAgenda) {
    p.subscribe(v, *this, events);
  }
  void filter() override { ++runs; }
  int runs = 0;
};

TEST(FdSolverTest, EventMaskSelectsWakeups) {
  Problem p;
  DomainVariable& v = p.add_set_variable("v", 10);
  auto& bounds_watcher = p.make<CountingPropagator>(v, kEventBounds);
  auto& domain_watcher = p.make<CountingPropagator>(v, kEventDomain);
  auto& value_watcher = p.make<CountingPropagator>(v, kEventValue);

  EXPECT_TRUE(p.remove(v, 5));  // interior: domain only
  EXPECT_TRUE(p.propagate());
  EXPECT_EQ(bounds_watcher.runs, 0);
  EXPECT_EQ(domain_watcher.runs, 1);
  EXPECT_EQ(value_watcher.runs, 0);

  EXPECT_TRUE(p.remove(v, 0));  // min moved
  EXPECT_TRUE(p.propagate());
  EXPECT_EQ(bounds_watcher.runs, 1);
  EXPECT_EQ(domain_watcher.runs, 2);

  EXPECT_TRUE(p.bind(v, 7));  // became singleton
  EXPECT_TRUE(p.propagate());
  EXPECT_EQ(value_watcher.runs, 1);
}

TEST(FdSolverTest, DuplicateSchedulingIsSuppressed) {
  Problem p;
  DomainVariable& v = p.add_set_variable("v", 10);
  auto& w = p.make<CountingPropagator>(v, kEventDomain);
  // Two removals before the drain: the watcher is queued once.
  EXPECT_TRUE(p.remove(v, 3));
  EXPECT_TRUE(p.remove(v, 4));
  EXPECT_TRUE(p.propagate());
  EXPECT_EQ(w.runs, 1);
}

TEST(FdSolverTest, WipeoutLatchesFailureAndStopsTheDrain) {
  Problem p;
  DomainVariable& v = p.add_set_variable("v", 2);
  EXPECT_TRUE(p.remove(v, 0));
  EXPECT_FALSE(p.remove(v, 1));
  EXPECT_TRUE(p.failed());
  EXPECT_FALSE(p.propagate());
  EXPECT_EQ(p.stats().wipeouts, 1u);
}

TEST(FdSolverTest, TrailUndoRestoresDomains) {
  Problem p;
  DomainVariable& a = p.add_set_variable("a", 8);
  DomainVariable& b = p.add_interval_variable("b", 0.0, 100.0);

  const Problem::Mark m = p.mark();
  EXPECT_TRUE(p.bind(a, 3));
  EXPECT_TRUE(p.clamp_hi(b, 10.0));
  EXPECT_TRUE(p.clamp_lo(b, 5.0));  // second touch, same level: one save
  EXPECT_TRUE(a.domain().fixed());
  EXPECT_DOUBLE_EQ(b.domain().hi(), 10.0);

  p.undo_to(m);
  EXPECT_EQ(a.domain().count(), 8u);
  EXPECT_DOUBLE_EQ(b.domain().lo(), 0.0);
  EXPECT_DOUBLE_EQ(b.domain().hi(), 100.0);
}

TEST(FdSolverTest, NestedMarksUnwindInOrder) {
  Problem p;
  DomainVariable& v = p.add_set_variable("v", 10);
  const Problem::Mark m1 = p.mark();
  EXPECT_TRUE(p.remove(v, 0));
  const Problem::Mark m2 = p.mark();
  EXPECT_TRUE(p.remove(v, 1));
  EXPECT_EQ(v.domain().count(), 8u);
  p.undo_to(m2);
  EXPECT_EQ(v.domain().count(), 9u) << "inner level undone";
  EXPECT_FALSE(v.domain().contains(std::size_t{0}));
  p.undo_to(m1);
  EXPECT_EQ(v.domain().count(), 10u);
}

TEST(FdSolverTest, UndoClearsFailure) {
  Problem p;
  DomainVariable& v = p.add_set_variable("v", 1);
  const Problem::Mark m = p.mark();
  EXPECT_FALSE(p.remove(v, 0));
  EXPECT_TRUE(p.failed());
  p.undo_to(m);
  EXPECT_FALSE(p.failed());
  EXPECT_EQ(v.domain().count(), 1u);
}

TEST(FdSolverTest, NotEqualPropagatorPrunesOnFix) {
  Problem p;
  DomainVariable& x = p.add_set_variable("x", 3);
  DomainVariable& y = p.add_set_variable("y", 3);
  p.make<NotEqualOffsetPropagator>(x, y, 0);
  EXPECT_TRUE(p.bind(x, 1));
  EXPECT_TRUE(p.propagate());
  EXPECT_FALSE(y.domain().contains(std::size_t{1}));
  EXPECT_EQ(y.domain().count(), 2u);
}

/// n-queens: variable per row, value = column; diagonals via offsets.
void build_queens(Problem& p, std::size_t n) {
  std::vector<DomainVariable*> rows;
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back(&p.add_set_variable("q" + std::to_string(i), n));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const long long d = static_cast<long long>(j - i);
      p.make<NotEqualOffsetPropagator>(*rows[i], *rows[j], 0);
      p.make<NotEqualOffsetPropagator>(*rows[i], *rows[j], d);
      p.make<NotEqualOffsetPropagator>(*rows[i], *rows[j], -d);
    }
  }
}

TEST(FdSolverTest, SixQueensHasFourSolutions) {
  Problem p;
  build_queens(p, 6);
  Search search(p);
  Search::Options opts;
  opts.max_solutions = 0;  // all
  EXPECT_TRUE(search.solve(opts, [] { return true; }));
  EXPECT_EQ(search.stats().solutions, 4u);
  EXPECT_GT(search.stats().fails, 0u);
}

TEST(FdSolverTest, EightQueensFindsNinetyTwoSolutions) {
  Problem p;
  build_queens(p, 8);
  Search search(p);
  Search::Options opts;
  opts.max_solutions = 0;
  EXPECT_TRUE(search.solve(opts, [] { return true; }));
  EXPECT_EQ(search.stats().solutions, 92u);
}

TEST(FdSolverTest, SearchSolutionHasAllVariablesFixed) {
  Problem p;
  build_queens(p, 8);
  Search search(p);
  bool checked = false;
  search.solve(Search::Options{}, [&] {
    for (const auto& v : p.variables()) EXPECT_TRUE(v->domain().fixed());
    checked = true;
    return false;
  });
  EXPECT_TRUE(checked);
}

TEST(FdSolverTest, SearchRestoresDomainsAfterSolve) {
  Problem p;
  build_queens(p, 6);
  Search search(p);
  search.solve(Search::Options{}, [] { return false; });
  for (const auto& v : p.variables()) {
    EXPECT_EQ(v->domain().count(), 6u) << v->name() << " not restored";
  }
}

TEST(FdSolverTest, MaxNodesAbandonsTheSearch) {
  Problem p;
  build_queens(p, 8);
  Search search(p);
  Search::Options opts;
  opts.max_solutions = 0;
  opts.max_nodes = 5;
  search.solve(opts, [] { return true; });
  EXPECT_LE(search.stats().nodes, 5u);
}

// The drain counts one filter run per popped propagator, up to and
// including the one whose filter wipes a domain out.  Pinned on a 4-queens
// network that propagation alone solves and on a 3-queens one it refutes.
TEST(FdSolverTest, FilterRunsArePinned) {
  Problem four;
  build_queens(four, 4);
  ASSERT_TRUE(four.bind(*four.variables()[0], 1));
  ASSERT_TRUE(four.propagate_all());
  for (const auto& v : four.variables()) EXPECT_TRUE(v->fixed()) << v->name();
  EXPECT_EQ(four.stats().filter_runs, 33u);
  EXPECT_EQ(four.stats().prunings, 10u);

  // 3-queens with the middle column taken: row 1 has nowhere to go.
  Problem three;
  build_queens(three, 3);
  ASSERT_TRUE(three.bind(*three.variables()[0], 1));
  EXPECT_FALSE(three.propagate_all());
  EXPECT_EQ(three.stats().filter_runs, 3u);
  EXPECT_EQ(three.stats().wipeouts, 1u);
}

/// Graph coloring: K4 minus one edge is 3-colorable; K4 is not.
TEST(FdSolverTest, GraphColoring) {
  auto color = [](bool complete) {
    Problem p;
    std::vector<DomainVariable*> nodes;
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(&p.add_set_variable("n" + std::to_string(i), 3));
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        if (!complete && i == 0 && j == 1) continue;  // drop one edge
        p.make<NotEqualOffsetPropagator>(*nodes[i], *nodes[j], 0);
      }
    }
    Search search(p);
    return search.solve(Search::Options{}, [] { return false; });
  };
  EXPECT_TRUE(color(false)) << "K4 minus an edge is 3-colorable";
  EXPECT_FALSE(color(true)) << "K4 needs 4 colors";
}

/// Appends each variable's name the first time it is seen fixed.
class FixOrderRecorder : public Propagator {
 public:
  FixOrderRecorder(Problem& p, std::vector<std::string>* order)
      : Propagator(p, kFdUnaryAgenda), order_(order) {}
  void filter() override {
    for (const auto& v : problem().variables()) {
      if (v->domain().fixed() &&
          std::find(order_->begin(), order_->end(), v->name()) ==
              order_->end()) {
        order_->push_back(v->name());
      }
    }
  }

 private:
  std::vector<std::string>* order_;
};

TEST(FdSolverTest, MrvPicksTheTightestVariable) {
  Problem p;
  DomainVariable& wide = p.add_set_variable("wide", 9);
  DomainVariable& narrow = p.add_set_variable("narrow", 9);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_TRUE(p.remove(narrow, i));
  std::vector<std::string> order;
  auto& rec = p.make<FixOrderRecorder>(&order);
  p.subscribe(wide, rec, kEventValue);
  p.subscribe(narrow, rec, kEventValue);
  Search search(p);
  search.solve(Search::Options{}, [] { return false; });
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order.front(), "narrow") << "MRV must branch on 2 values before 9";
}

}  // namespace
}  // namespace stemcp::fd
