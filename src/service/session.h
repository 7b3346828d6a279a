// DesignSession: one independent design workspace inside the design
// service — a Library (which owns its propagation context, tracer and
// metrics registry) behind a per-session mutex.
//
// The propagation engine is single-threaded per context (ROADMAP: the STEM
// image was a single-designer environment); the service scales by running
// MANY engines, one per session, and serializing work within each session
// with its mutex.  Cross-session work proceeds fully in parallel.  When a
// session closes, its context destructor folds the session's lifetime
// counters and histograms into the process-global metrics (core/trace.h),
// which is atomic and safe to hit from many closing sessions at once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "persist/journal.h"
#include "stem/library.h"

namespace stemcp::core {
class Variable;
}

namespace stemcp::service {

class DesignSession {
 public:
  /// `collect_metrics` enables the per-session MetricsRegistry (and
  /// `collect_trace` the structured tracer) from the first request on.
  explicit DesignSession(std::string name, bool collect_metrics = false,
                         bool collect_trace = false);
  ~DesignSession();  ///< detaches the journal

  DesignSession(const DesignSession&) = delete;
  DesignSession& operator=(const DesignSession&) = delete;

  const std::string& name() const { return name_; }

  /// The session's design database.  Callers must hold mutex() while
  /// touching it (the service's worker pool does so per request).
  env::Library& library() { return lib_; }
  std::mutex& mutex() { return mu_; }

  /// Requests executed against this session (guarded by mutex()).  When the
  /// session collects metrics, the count is mirrored into the "svc.requests"
  /// counter through a pre-resolved handle — resolved once per metrics
  /// generation, so the per-request path does no string lookup.
  std::uint64_t requests_served() const { return requests_; }
  void count_request() {
    ++requests_;
    auto& m = lib_.context().metrics();
    if (m.enabled()) {
      if (req_counter_ == nullptr || req_counter_gen_ != m.generation()) {
        req_counter_ = m.counter_handle("svc.requests");
        req_counter_gen_ = m.generation();
      }
      ++*req_counter_;
    }
  }

  /// Look up a variable of the design database by its identification path
  /// ("ADDER.delay(a->out)", "ACC/reg.param(width)", ...), walking the path
  /// through the objects that own the variable (docs/SERVICE.md "Variable
  /// paths").  Nullptr when unknown.  Creates and assigns nothing, and
  /// allocates nothing.  Caller must hold mutex().
  core::Variable* find_variable(const std::string& path);

  /// Visit every addressable variable (class- and instance-side).
  void for_each_variable(const std::function<void(core::Variable&)>& fn);
  /// Visit the class-level variables of `cell`, in for_each_variable's
  /// order: its bounding box, its own signals' typing variables, its own
  /// parameters and its own delays.
  static void for_each_class_variable(
      env::CellClass& cell, const std::function<void(core::Variable&)>& fn);

  // -- durability (callers hold mutex(); see docs/PERSISTENCE.md) ----------

  /// The attached operation journal, or nullptr for an in-memory-only
  /// session.  The service appends one record per successful mutating
  /// request while this is set; its options() hold the sync knobs.
  persist::Journal* journal() { return journal_.get(); }
  /// The durable-state base: "<base>.ckpt" / "<base>.journal"
  /// (docs/PERSISTENCE.md).
  const std::string& journal_base() const { return journal_base_; }

  void attach_journal(std::unique_ptr<persist::Journal> j, std::string base) {
    journal_ = std::move(j);
    journal_base_ = std::move(base);
  }
  /// Release the journal (its destructor flushes and closes the file) and
  /// fold its counters into the session's metrics registry.
  void detach_journal();

  /// Cumulative FD module-selection work (select / select-stats requests;
  /// docs/SOLVER.md).  Guarded by mutex() like the rest of the session.
  struct SelectionTally {
    std::uint64_t requests = 0;             ///< select + select-stats served
    std::uint64_t solutions = 0;            ///< assignments found
    std::uint64_t candidates_explored = 0;  ///< realization tests
    std::uint64_t subtrees_pruned = 0;      ///< generic subtrees cut
    std::uint64_t commits = 0;              ///< slots realized via commit
  };
  const SelectionTally& selection_tally() const { return selection_; }
  SelectionTally& selection_tally() { return selection_; }

  bool collects_metrics() const { return opt_metrics_; }
  bool collects_trace() const { return opt_trace_; }
  /// The open options as protocol text ("", "metrics", "metrics trace", ...)
  /// — recorded in checkpoint headers so recovery reopens identically.
  std::string open_options() const;

 private:
  std::string name_;
  std::mutex mu_;
  env::Library lib_;
  std::uint64_t requests_ = 0;
  std::uint64_t* req_counter_ = nullptr;
  std::uint64_t req_counter_gen_ = 0;
  bool opt_metrics_ = false;
  bool opt_trace_ = false;
  std::unique_ptr<persist::Journal> journal_;
  std::string journal_base_;
  SelectionTally selection_;
};

}  // namespace stemcp::service
