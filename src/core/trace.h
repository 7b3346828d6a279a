// Propagation observability (ROADMAP: production-scale instrumentation).
//
// The thesis sells propagation on its ability to explain itself — dependency
// records, justifications, and a warning window (§4.2, ch. 6).  This header
// extends that idea from "why does this value hold" to "what did the engine
// do and how long did it take": structured trace events emitted by the
// propagation engine into a fixed-size ring, one Chrome trace-event writer
// (chrome://tracing / Perfetto), and a metrics registry with counters and
// log2-bucketed histograms.  The design service's request telemetry
// (service/telemetry.h) is built on the same ring, writer and registry.
//
// Design constraints:
//  * Zero cost when disabled.  Every emission site is guarded by an inlined
//    boolean check; a TraceEvent is a fixed-size POD (label is a truncated
//    in-place copy, never a heap string) so the hot path never allocates.
//  * Single-writer.  The engine is single-threaded per context; the ring
//    buffer uses one atomic write index so concurrent readers (a UI thread
//    snapshotting mid-run) see a consistent prefix.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace stemcp::core {

/// Process-wide monotonic stamp source (never returns the same value twice,
/// never returns 0).  Session epochs, agenda epochs, and metric-registry
/// generations all draw from it, so a stamp taken from one object can never
/// collide with a stamp taken from another — cached handles and epoch marks
/// stay self-validating across contexts, schedulers, and registries.
std::uint64_t next_global_stamp();

// ---------------------------------------------------------------------------
// Trace events

enum class TraceEventType : std::uint8_t {
  kSessionBegin,    ///< run_session entered
  kSessionEnd,      ///< run_session left (label carries the outcome)
  kAssignment,      ///< a variable accepted a value
  kActivation,      ///< propagateVariable: sent to a constraint
  kAgendaSchedule,  ///< entry accepted onto an agenda (priority = queue index)
  kAgendaPop,       ///< entry popped and executed; duration = run time
  kCheck,           ///< final-sweep isSatisfied; duration = check time
  kViolation,       ///< first violation of a session recorded
  kRestore,         ///< a visited variable restored to its saved state
  kNetworkEdit,     ///< constraint created/destroyed or argument add/remove
  kRequestPhase,    ///< one service-request phase span (priority = phase id)
};

const char* to_string(TraceEventType t);

struct TraceEvent {
  static constexpr std::size_t kLabelCapacity = 64;

  TraceEventType type = TraceEventType::kSessionBegin;
  std::uint8_t priority = 0;      ///< agenda queue index where relevant
  std::uint64_t seq = 0;          ///< monotonically increasing per tracer
  std::uint64_t timestamp_ns = 0; ///< steady-clock ns (a span: its end)
  std::uint64_t duration_ns = 0;  ///< span length; 0 for instant events
  const void* subject = nullptr;  ///< constraint/variable identity (never
                                  ///< dereferenced)
  char label[kLabelCapacity] = {};

  void set_label(std::string_view s);
  std::string_view label_view() const;
};

// ---------------------------------------------------------------------------
// Ring buffer

/// Fixed-capacity single-writer ring that overwrites its oldest entry once
/// full: the engine's trace events and each telemetry lane's request spans.
/// One atomic write index, so another thread can snapshot while the writer
/// runs; a slot overwritten during that copy may come out torn, which the
/// flight recorder accepts in exchange for a lock-free writer.
template <class T, std::size_t N>
class RingBuffer {
  static_assert(N > 0);

 public:
  static constexpr std::size_t capacity() { return N; }

  void push(const T& v) {
    const std::uint64_t w = write_.load(std::memory_order_relaxed);
    slots_[w % N] = v;
    write_.store(w + 1, std::memory_order_release);
  }

  /// Entries ever pushed (exceeds capacity() after wraparound).
  std::uint64_t total() const { return write_.load(std::memory_order_acquire); }
  /// Entries lost to wraparound.
  std::uint64_t overwritten() const {
    const std::uint64_t t = total();
    return t > N ? t - N : 0;
  }
  std::size_t size() const {
    return static_cast<std::size_t>(std::min<std::uint64_t>(total(), N));
  }

  /// Copy of the retained entries, oldest first.
  std::vector<T> snapshot() const {
    const std::uint64_t t = total();
    const std::uint64_t n = std::min<std::uint64_t>(t, N);
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = t - n; i < t; ++i) out.push_back(slots_[i % N]);
    return out;
  }
  void clear() { write_.store(0, std::memory_order_release); }

 private:
  std::array<T, N> slots_{};
  std::atomic<std::uint64_t> write_{0};
};

// ---------------------------------------------------------------------------
// Tracer

class Tracer {
 public:
  static constexpr std::size_t kRingCapacity = 65536;
  using EventRing = RingBuffer<TraceEvent, kRingCapacity>;

  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The one flag hot paths check (inlined single bool load).
  bool enabled() const { return enabled_; }
  /// The first enable allocates the ring.
  void set_enabled(bool on);

  /// The event ring; null until tracing is first enabled, so a context that
  /// never traces allocates none.
  const EventRing* ring() const { return ring_.get(); }

  std::uint64_t events_emitted() const { return seq_; }

  /// Build and record one event; no-op while disabled.  `label` is
  /// truncated into the event in place (no allocation).  The event is
  /// stamped `timestamp_ns`, or now when that is 0; a span is stamped when
  /// its work ended.
  void emit(TraceEventType type, std::string_view label,
            const void* subject = nullptr, std::uint64_t duration_ns = 0,
            std::uint8_t priority = 0, std::uint64_t timestamp_ns = 0);

  /// Steady-clock nanoseconds (the timebase of every event).
  static std::uint64_t now_ns();

 private:
  bool enabled_ = false;
  std::uint64_t seq_ = 0;
  std::unique_ptr<EventRing> ring_;
};

// ---------------------------------------------------------------------------
// Chrome trace-event export (chrome://tracing, Perfetto)

/// `s` as a quoted, escaped JSON string.
std::string json_string(std::string_view s);

/// One Chrome trace event.  `ts_ns` is where it starts: an X slice starts
/// where its measured work started.
struct ChromeEvent {
  std::string_view name;
  std::string_view cat;
  char ph = 'i';             ///< 'B', 'E', 'X' (complete slice) or 'i'
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;  ///< X slices only
  unsigned tid = 1;
  std::string_view args;     ///< members of the args object, already JSON
};

/// Append `e` to the body of a "traceEvents" array (`first` places the
/// commas).  `ts` and `dur` print as fixed-point microseconds with three
/// decimals, exact to the nanosecond at any clock value.  Engine exports and
/// flight dumps both render through this one writer.
void append_chrome_event(std::string& out, bool& first, const ChromeEvent& e);

/// Write engine events as a Chrome trace document ("traceEvents" array
/// form).  Sessions become B/E pairs; checks, agenda runs and request phases
/// become complete ("X") slices over their measured duration; everything
/// else is an instant event.
void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& out);

/// Snapshot the tracer's ring and write it to `path`.  Returns false when
/// tracing was never enabled or the file cannot be written.
bool export_chrome_trace(const Tracer& tracer, const std::string& path);

// ---------------------------------------------------------------------------
// Metrics

/// Log2-bucketed histogram for nanosecond latencies and queue depths.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t value);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  /// Upper-bound estimate of the p-th percentile (0 < p <= 100) from the
  /// bucket boundaries.
  std::uint64_t percentile(double p) const;
  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  void merge(const Histogram& other);
  void clear();

  /// Rebuild a histogram from raw parts.  Used by ConcurrentHistogram to
  /// snapshot its lock-free state into a plain value.
  static Histogram from_parts(const std::array<std::uint64_t, kBuckets>& buckets,
                              std::uint64_t count, std::uint64_t sum,
                              std::uint64_t min, std::uint64_t max);

  /// The log2 bucket a value lands in (shared by the concurrent mirror).
  static std::size_t bucket_index(std::uint64_t value);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Lock-free histogram for concurrent writers: every bucket and summary
/// field is its own atomic, so many threads record() without a value lock.
/// Readers NEVER walk the live atomics to compute percentiles — they take a
/// snapshot() (one coherent load per field, rebuilt through
/// Histogram::from_parts) and do the math on the plain value, so a
/// percentile can never mix bucket counts from two different instants of a
/// concurrent write storm.  This is the telemetry lanes' recorder (per-worker
/// request-latency histograms, docs/OBSERVABILITY.md).
class ConcurrentHistogram {
 public:
  /// Allocation-free; safe from any thread.
  void record(std::uint64_t value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Coherent plain-value snapshot; compute percentiles on THIS, not on the
  /// live object.
  Histogram snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, Histogram::kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Named monotonic counters plus named histograms, snapshotable to JSON.
/// Not thread-safe (one registry per engine context); the process-global
/// registry below is.
class MetricsRegistry {
 public:
  MetricsRegistry() : generation_(next_global_stamp()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void add_counter(const std::string& name, std::uint64_t delta = 1);
  std::uint64_t counter(const std::string& name) const;
  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }

  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  const Histogram* find_histogram(const std::string& name) const;
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  // ---- pre-resolved handles (hot-path recording without string lookups) ---
  //
  // A handle is a stable pointer at the named slot: std::map nodes never
  // move, so it stays valid until clear().  Resolve once (creating the slot
  // if needed), then record through the pointer with no string construction
  // or map walk per event.  clear() destroys all slots and bumps
  // generation(); cache a handle together with the generation it was
  // resolved under and re-resolve on mismatch.  Generations are globally
  // unique stamps, so a handle cached against one registry can never be
  // mistaken for a handle into another.
  std::uint64_t generation() const { return generation_; }
  std::uint64_t* counter_handle(const std::string& name) {
    return &counters_[name];
  }
  Histogram* histogram_handle(const std::string& name) {
    return &histograms_[name];
  }

  void merge(const MetricsRegistry& other);
  void clear();

  /// {"counters":{...},"histograms":{name:{count,sum,min,max,mean,p50,p99}}}
  std::string to_json() const;

 private:
  bool enabled_ = false;
  std::uint64_t generation_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Histogram> histograms_;
};

/// The process-global registry, one MetricsRegistry behind one mutex: engine
/// contexts fold their lifetime statistics into it on destruction, so
/// benchmark binaries can emit one machine-readable stats JSON per run, and
/// concurrent design-service sessions aggregate here when they close.
/// Thread-safe.
void merge_into_global_metrics(const MetricsRegistry& m);
/// A copy of the process-global registry.
MetricsRegistry global_metrics_snapshot();
void reset_global_metrics();

// ---------------------------------------------------------------------------
// Prometheus text exposition (docs/OBSERVABILITY.md)

/// Render a registry in the Prometheus text format: counters become
/// `<prefix><name> <value>`, histograms become cumulative `_bucket{le=...}`
/// series over the non-empty log2 buckets plus `_sum` / `_count`.  Metric
/// names are sanitized to [a-zA-Z0-9_:] (dots become underscores).  Render
/// one merged registry, never two concatenated: the format allows each
/// family once.
std::string metrics_to_prometheus(const MetricsRegistry& m,
                                  std::string_view prefix = "stemcp_");

}  // namespace stemcp::core
