// Library: the design database root.  Owns the propagation context, the
// signal type registry, and every cell class.  The context lives exactly as
// long as the library: loads and edits change the design in place on it.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/core.h"
#include "stem/signal_type.h"

namespace stemcp::env {

class CellClass;

class Library {
 public:
  explicit Library(std::string name = "lib");
  ~Library();

  Library(const Library&) = delete;
  Library& operator=(const Library&) = delete;

  const std::string& name() const { return name_; }
  core::PropagationContext& context() { return ctx_; }
  const core::PropagationContext& context() const { return ctx_; }
  SignalTypeRegistry& types() { return types_; }

  /// Define a cell class, optionally as a subclass of an existing one.
  CellClass& define_cell(const std::string& name,
                         CellClass* superclass = nullptr);
  /// One hashed lookup in the name index; no copy of `name` is made.
  CellClass* find(std::string_view name) const;
  CellClass& cell(const std::string& name) const;
  const std::vector<std::unique_ptr<CellClass>>& cells() const {
    return cells_;
  }

  /// Destroy every cell defined after the first `count`, newest-first (so
  /// composites release their instances of earlier cells before those die).
  /// LibraryReader's rollback of a failed read; destructors deregister
  /// cleanly (subclass lists, instance registries, constraint arguments) and
  /// destroy the constraints the cells own.
  void rollback_cells_to(std::size_t count);

  /// Module-selection instrumentation (used by the pruning/selective-testing
  /// ablation benches).
  struct SelectionStats {
    std::uint64_t candidates_tested = 0;
    std::uint64_t bbox_checks = 0;
    std::uint64_t signal_checks = 0;
    std::uint64_t delay_checks = 0;
  };
  SelectionStats& selection_stats() { return selection_stats_; }
  void reset_selection_stats() { selection_stats_ = {}; }

 private:
  std::string name_;
  core::PropagationContext ctx_;  // outlives cells_ (declared first)
  SignalTypeRegistry types_;
  std::vector<std::unique_ptr<CellClass>> cells_;
  /// name → cell, for every cell in cells_.  Each key views its cell's own
  /// name, so an entry leaves the index before its cell is destroyed.
  std::unordered_map<std::string_view, CellClass*> index_;
  SelectionStats selection_stats_;
};

}  // namespace stemcp::env
