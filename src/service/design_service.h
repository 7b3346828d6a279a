// DesignService: the constraint-propagation engine as a service-grade
// component (ROADMAP: production scale; cf. Schulte & Stuckey's treatment of
// propagation engines as explicit, schedulable components and Goualard's
// clean session/service solver boundary).
//
// Architecture:
//   * ShardedSessionManager — the session registry, in N shards.  Each
//     shard keeps its own name → DesignSession map (each session a Library
//     + engine context, tracer, metrics behind a per-session mutex) under
//     its own registry mutex, its own worker pool draining a per-shard FIFO
//     queue, and its own journal directory namespace.  Sessions route to
//     shards by a deterministic hash of the session id, so no request —
//     mutating or lifecycle — ever takes a lock shared between shards.
//     Global views (session listing, counts) fold per-shard state lazily on
//     read, one shard lock at a time.
//   * DesignService — the request API over the sharded tier: submit() hashes
//     the session id, stamps the span, and enqueues on the owning shard.
//   * Typed request API — open / load / save / assign / batch-assign /
//     edit / query / report / close, with structured results carrying
//     violation and restore outcomes.
//
// Batching: a kBatchAssign request coalesces all of its #USER assignments
// into ONE propagation session — one wave, one agenda drain, one final
// isSatisfied sweep — so a violating batch restores every variable the wave
// touched (all-or-nothing), and a clean batch costs one check sweep instead
// of one per assignment.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/session.h"
#include "service/telemetry.h"

namespace stemcp::service {

enum class RequestType : std::uint8_t {
  kOpen,         ///< create a session (text: options "metrics" / "trace")
  kLoad,         ///< parse library text into the session (text: the library)
  kSave,         ///< serialize the session's library (response text)
  kAssign,       ///< sequential #USER assignments, one wave each
  kBatchAssign,  ///< all #USER assignments in one propagation wave
  kEdit,         ///< structural edit command (text: see docs/SERVICE.md)
  kQuery,        ///< "cells" | "vars [cell]" | "stats" | <variable path>
  kReport,       ///< design documentation report (text: optional cell name)
  kClose,        ///< destroy the session (folds its metrics into the
                 ///< process-global registry; flushes and closes the journal)
  kJournal,      ///< attach a journal (text: "<base> [policy [interval]]");
                 ///< writes an initial checkpoint, then logs every mutation
  kCheckpoint,   ///< snapshot the library atomically, truncate the journal
  kRecover,      ///< rebuild a session from disk (text: "<base>"); replays
                 ///< checkpoint + journal through the engine
  kSelect,       ///< FD module selection (text: "<cell> [slot <subcell>]...
                 ///< [limit <n>] [commit]"; see docs/SOLVER.md)
  kSelectStats,  ///< dry-run selection: exploration counters, no commit
};

const char* to_string(RequestType t);

struct Assignment {
  std::string variable;  ///< identification path, e.g. "ADDER.delay(a->out)"
  double value = 0.0;
};

struct Request {
  RequestType type = RequestType::kQuery;
  std::string session;
  std::string text;
  std::vector<Assignment> assignments;
};

/// Structured result of one request.  `ok` is false only for request-level
/// failures (unknown session/variable, parse error, bad command); a
/// constraint violation is a *successful* request whose outcome is reported
/// through `violation` / `violation_message` / `variables_restored`.
struct Response {
  bool ok = false;
  std::string error;
  std::string text;

  bool violation = false;
  std::string violation_message;
  std::uint64_t assignments_applied = 0;  ///< accepted before any violation
  std::uint64_t variables_restored = 0;   ///< restored by violation recovery

  std::string session;
};

/// The sharded session tier.  Each shard owns a registry, a FIFO queue, and
/// a worker pool; sessions and jobs route by shard_of(session).  The request
/// path touches only the owning shard's registry and queue mutexes and
/// session locks — there is no global lock to contend on (asserted by
/// ShardStressTest.BlockedShardDoesNotStallOthers).
class ShardedSessionManager {
 public:
  /// One queued request: the typed request, its telemetry span, and the
  /// promise the executing worker resolves.
  struct Job {
    Request request;
    RequestSpan span;
    std::promise<Response> done;
  };
  /// Drain handler, invoked on the owning shard's worker thread for every
  /// dequeued job: (shard, worker-within-shard, job).  The handler executes
  /// the request, records telemetry, and resolves job.done.
  using JobHandler = std::function<void(std::size_t, std::size_t, Job&)>;

  /// Spins up `shards` × `workers_per_shard` workers.  A non-empty
  /// `journal_root` namespaces durable state per shard: journal/recover base
  /// paths resolve to "<root>/shard-<i>/<base>" (directories are created
  /// eagerly here, off the request path).
  ShardedSessionManager(std::size_t shards, std::size_t workers_per_shard,
                        std::string journal_root, JobHandler handler);
  /// Drains every shard queue (every submitted job is still handled), then
  /// joins the workers.
  ~ShardedSessionManager();

  ShardedSessionManager(const ShardedSessionManager&) = delete;
  ShardedSessionManager& operator=(const ShardedSessionManager&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t workers_per_shard() const { return workers_per_shard_; }
  const std::string& journal_root() const { return journal_root_; }

  /// Deterministic session-id hash (FNV-1a 64); exposed so tests and
  /// benches can pick session names that land on chosen shards.
  static std::uint64_t hash_of(std::string_view session);
  std::size_t shard_of(std::string_view session) const {
    return static_cast<std::size_t>(hash_of(session) % shards_.size());
  }
  /// The shard's durable-state base path: "<root>/shard-<i>/<base>" under a
  /// journal root, `base` unchanged without one.
  std::string resolve_base(std::size_t shard, const std::string& base) const;

  // ---- registry ---------------------------------------------------------
  // open/insert/find/close take only the owning shard's registry mutex;
  // names/size fold across shards lazily, one shard's mutex at a time.

  /// Create a session; nullptr when the name is already taken.
  std::shared_ptr<DesignSession> open(const std::string& name,
                                      bool collect_metrics = false,
                                      bool collect_trace = false);
  /// Publish an externally built session (recovery constructs and replays
  /// the session BEFORE it becomes visible, so no request can observe a
  /// half-recovered library).  False when the name is already taken.
  bool insert(std::shared_ptr<DesignSession> s);
  std::shared_ptr<DesignSession> find(const std::string& name) const;
  /// Remove a session from its shard.  The victim is moved out under the
  /// registry mutex but destroyed AFTER it is released — destruction folds
  /// the session's stats into the process-global metrics, and that fold
  /// must never run under the registry mutex (workers may still hold the
  /// session shared_ptr; see the close-vs-request hammer in
  /// tests/service/shard_stress_test.cpp).
  bool close(const std::string& name);
  std::vector<std::string> names() const;  ///< sorted across shards
  std::size_t size() const;

  /// Enqueue on the owning shard.  False when the tier is stopping — the
  /// job is left untouched so the caller can resolve its promise.
  bool enqueue(Job&& job);
  /// Jobs the shard's workers have taken off its queue (monotone, relaxed).
  std::uint64_t dequeued(std::size_t shard) const {
    return shards_[shard]->dequeued.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    /// Registry mutex: guards `sessions` only, never held together with
    /// the queue mutex `mu` or any session's lock.
    mutable std::mutex registry_mu;
    std::map<std::string, std::shared_ptr<DesignSession>> sessions;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Job> queue;
    bool stopping = false;
    std::atomic<std::uint64_t> dequeued{0};
    std::vector<std::thread> workers;
  };

  Shard& shard_for(std::string_view session) const {
    return *shards_[shard_of(session)];
  }
  void worker_loop(std::size_t shard, std::size_t worker);

  std::size_t workers_per_shard_;
  std::string journal_root_;
  JobHandler handler_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

class DesignService {
 public:
  struct Config {
    std::size_t workers_per_shard = 4;
    std::size_t shards = 1;
    /// Non-empty: shard i's journal/recover bases resolve to
    /// "<root>/shard-<i>/<base>", giving each shard a private journal
    /// directory namespace.
    std::string journal_root;
  };

  explicit DesignService(Config cfg);
  explicit DesignService(std::size_t workers = 4, std::size_t shards = 1)
      : DesignService(Config{workers, shards, {}}) {}
  /// Drains the queues (every submitted request still gets a response),
  /// then joins the workers.
  ~DesignService() = default;

  DesignService(const DesignService&) = delete;
  DesignService& operator=(const DesignService&) = delete;

  /// Enqueue a request; the future resolves when a worker on the owning
  /// shard has executed it.  Never throws from execution — failures come
  /// back as Response::error.
  std::future<Response> submit(Request r);
  /// Synchronous convenience: submit and wait.
  Response call(Request r);

  ShardedSessionManager& sessions() { return *sessions_; }
  const ShardedSessionManager& sessions() const { return *sessions_; }
  std::size_t shard_count() const { return sessions_->shard_count(); }
  std::size_t worker_count() const {
    return sessions_->shard_count() * sessions_->workers_per_shard();
  }
  std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

  /// Observer invoked from submit() for every request, in submission order,
  /// BEFORE the job is enqueued (so a tap that records traffic sees exactly
  /// the order the service accepted it in — per-shard FIFO order with one
  /// worker per shard).  The workload recorder
  /// (src/workload/recorder.h) is the intended consumer; the service cannot
  /// depend on it, so the binding is a plain function.
  using RequestTap = std::function<void(const Request&)>;
  /// Install (or, with an empty function, remove) the request tap.  The
  /// config-flag discipline of telemetry.cpp applies: when no tap is
  /// installed the submit() hot path pays one relaxed atomic load and
  /// nothing else.  The tap runs under a mutex shared by all submitters —
  /// recording serializes submission, which is the point (the trace is a
  /// total order).  The caller must keep the tap's target alive until it
  /// detaches by installing an empty tap.
  void set_request_tap(RequestTap tap);

  /// Per-request latency telemetry: one lane per worker (lane =
  /// shard × workers_per_shard + worker), folded on read.  Spans are fully
  /// recorded before a request's future resolves, so a caller that waited
  /// on the response always sees its own span.
  TelemetryRecorder& telemetry() { return telemetry_; }
  const TelemetryRecorder& telemetry() const { return telemetry_; }

 private:
  void run_job(std::size_t shard, std::size_t worker,
               ShardedSessionManager::Job& job);
  Response execute(const Request& r, RequestSpan* span, std::size_t shard);
  /// open / recover / close — requests that manage the owning shard's
  /// registry itself rather than running under one session's lock.
  Response execute_lifecycle(const Request& r, std::size_t shard);

  Config cfg_;
  TelemetryRecorder telemetry_;
  std::atomic<std::uint64_t> served_{0};
  std::atomic<bool> tap_armed_{false};
  std::mutex tap_mu_;
  RequestTap tap_;
  // Declared last: its destructor joins the workers while telemetry_ and
  // served_ are still alive.
  std::unique_ptr<ShardedSessionManager> sessions_;
};

}  // namespace stemcp::service
