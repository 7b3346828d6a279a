#include "core/trace.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>

namespace stemcp::core {

std::uint64_t next_global_stamp() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// ---------------------------------------------------------------------------
// TraceEvent

const char* to_string(TraceEventType t) {
  switch (t) {
    case TraceEventType::kSessionBegin: return "sessionBegin";
    case TraceEventType::kSessionEnd: return "sessionEnd";
    case TraceEventType::kAssignment: return "assignment";
    case TraceEventType::kActivation: return "activation";
    case TraceEventType::kAgendaSchedule: return "agendaSchedule";
    case TraceEventType::kAgendaPop: return "agendaPop";
    case TraceEventType::kCheck: return "check";
    case TraceEventType::kViolation: return "violation";
    case TraceEventType::kRestore: return "restore";
    case TraceEventType::kNetworkEdit: return "networkEdit";
    case TraceEventType::kRequestPhase: return "requestPhase";
  }
  return "unknown";
}

void TraceEvent::set_label(std::string_view s) {
  const std::size_t n = std::min(s.size(), kLabelCapacity - 1);
  std::memcpy(label, s.data(), n);
  label[n] = '\0';
}

std::string_view TraceEvent::label_view() const {
  return std::string_view(label);
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer() = default;
Tracer::~Tracer() = default;

void Tracer::set_enabled(bool on) {
  if (on && ring_ == nullptr) ring_ = std::make_unique<EventRing>();
  enabled_ = on;
}

void Tracer::emit(TraceEventType type, std::string_view label,
                  const void* subject, std::uint64_t duration_ns,
                  std::uint8_t priority, std::uint64_t timestamp_ns) {
  if (!enabled_) return;
  TraceEvent e;
  e.type = type;
  e.priority = priority;
  e.seq = seq_++;
  e.timestamp_ns = timestamp_ns != 0 ? timestamp_ns : now_ns();
  e.duration_ns = duration_ns;
  e.subject = subject;
  e.set_label(label);
  ring_->push(e);
}

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// JSON and Chrome trace-event export

std::string json_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += hex;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

/// Nanoseconds as fixed-point microseconds: "<us>.<3 digits>".
void append_us(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

}  // namespace

void append_chrome_event(std::string& out, bool& first, const ChromeEvent& e) {
  if (!first) out += ",\n";
  first = false;
  out += "{\"name\":" + json_string(e.name);
  out += ",\"cat\":" + json_string(e.cat);
  out += ",\"ph\":\"";
  out += e.ph;
  out += "\",\"ts\":";
  append_us(out, e.ts_ns);
  out += ",\"pid\":1,\"tid\":" + std::to_string(e.tid);
  if (e.ph == 'X') {
    out += ",\"dur\":";
    append_us(out, e.dur_ns);
  }
  if (e.ph == 'i') out += ",\"s\":\"t\"";
  out += ",\"args\":{";
  out += e.args;
  out += "}}";
}

void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& out) {
  out << "{\"traceEvents\":[\n";
  std::string event;
  std::string args;
  bool first = true;
  // A wrapped ring may retain a sessionEnd without its begin; Perfetto
  // tolerates unmatched E events, but skip a leading E for cleanliness.
  bool saw_begin = false;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kSessionBegin) saw_begin = true;
    if (e.type == TraceEventType::kSessionEnd && !saw_begin) continue;
    ChromeEvent c;
    c.cat = to_string(e.type);
    c.name = e.label_view().empty() ? c.cat : e.label_view();
    c.ts_ns = e.timestamp_ns;
    switch (e.type) {
      case TraceEventType::kSessionBegin: c.ph = 'B'; c.name = "session"; break;
      case TraceEventType::kSessionEnd: c.ph = 'E'; c.name = "session"; break;
      case TraceEventType::kCheck:
      case TraceEventType::kAgendaPop:
      case TraceEventType::kRequestPhase:
        // Stamped when the work ended: the slice starts where it started.
        c.ph = 'X';
        c.dur_ns = std::min(e.duration_ns, e.timestamp_ns);
        c.ts_ns = e.timestamp_ns - c.dur_ns;
        break;
      default: break;
    }
    args = "\"seq\":" + std::to_string(e.seq) +
           ",\"priority\":" + std::to_string(e.priority);
    if (!e.label_view().empty()) {
      args += ",\"label\":" + json_string(e.label_view());
    }
    c.args = args;
    event.clear();
    append_chrome_event(event, first, c);
    out << event;
  }
  out << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

bool export_chrome_trace(const Tracer& tracer, const std::string& path) {
  if (tracer.ring() == nullptr) return false;
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.good()) return false;
  write_chrome_trace(tracer.ring()->snapshot(), out);
  return out.good();
}

// ---------------------------------------------------------------------------
// Histogram

std::size_t Histogram::bucket_index(std::uint64_t value) {
  const std::size_t bucket =
      value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value));
  return std::min(bucket, kBuckets - 1);
}

void Histogram::record(std::uint64_t value) {
  buckets_[bucket_index(value)] += 1;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  sum_ += value;
  ++count_;
}

std::uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const double target = std::max(1.0, std::ceil(count_ * p / 100.0));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target) {
      // Upper bound of bucket i: values v with bit_width(v) == i.
      if (i == 0) return 0;
      if (i >= 63) return max_;
      return std::min(max_, (std::uint64_t{1} << i) - 1);
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  sum_ += other.sum_;
  count_ += other.count_;
}

void Histogram::clear() { *this = Histogram{}; }

Histogram Histogram::from_parts(
    const std::array<std::uint64_t, kBuckets>& buckets, std::uint64_t count,
    std::uint64_t sum, std::uint64_t min, std::uint64_t max) {
  Histogram h;
  h.buckets_ = buckets;
  h.count_ = count;
  h.sum_ = sum;
  h.min_ = count ? min : 0;
  h.max_ = max;
  return h;
}

// ---------------------------------------------------------------------------
// ConcurrentHistogram

namespace {

void atomic_update_min(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_update_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void ConcurrentHistogram::record(std::uint64_t value) {
  // The count is published last, with release, and snapshot() reads it
  // first, with acquire: a snapshot that counts this record also sees its
  // min and max, never the initial 2^64-1 beside 0.
  atomic_update_min(min_, value);
  atomic_update_max(max_, value);
  buckets_[Histogram::bucket_index(value)].fetch_add(
      1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_release);
}

Histogram ConcurrentHistogram::snapshot() const {
  const std::uint64_t count = count_.load(std::memory_order_acquire);
  std::array<std::uint64_t, Histogram::kBuckets> b;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    b[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return Histogram::from_parts(b, count, sum_.load(std::memory_order_relaxed),
                               min_.load(std::memory_order_relaxed),
                               max_.load(std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// MetricsRegistry

void MetricsRegistry::add_counter(const std::string& name,
                                  std::uint64_t delta) {
  counters_[name] += delta;
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

void MetricsRegistry::clear() {
  counters_.clear();
  histograms_.clear();
  // Handles resolved before the clear dangle; the new generation tells
  // every cache site to re-resolve.
  generation_ = next_global_stamp();
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    if (!first) out << ',';
    first = false;
    out << json_string(name) << ':' << v;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out << ',';
    first = false;
    out << json_string(name) << ":{\"count\":" << h.count()
        << ",\"sum\":" << h.sum() << ",\"min\":" << h.min()
        << ",\"max\":" << h.max() << ",\"mean\":" << h.mean()
        << ",\"p50\":" << h.percentile(50.0)
        << ",\"p90\":" << h.percentile(90.0)
        << ",\"p99\":" << h.percentile(99.0)
        << ",\"p999\":" << h.percentile(99.9) << '}';
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Process-global registry

namespace {

struct GlobalRegistry {
  std::mutex mu;
  MetricsRegistry registry;
};

GlobalRegistry& global_registry() {
  static GlobalRegistry g;
  return g;
}

}  // namespace

void merge_into_global_metrics(const MetricsRegistry& m) {
  GlobalRegistry& g = global_registry();
  const std::lock_guard<std::mutex> lock(g.mu);
  g.registry.merge(m);
}

MetricsRegistry global_metrics_snapshot() {
  GlobalRegistry& g = global_registry();
  const std::lock_guard<std::mutex> lock(g.mu);
  return g.registry;
}

void reset_global_metrics() {
  GlobalRegistry& g = global_registry();
  const std::lock_guard<std::mutex> lock(g.mu);
  g.registry.clear();
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else (dots in
/// our registry keys, parens in constraint types) folds to '_'.
std::string prometheus_name(std::string_view prefix, std::string_view name) {
  std::string out;
  out.reserve(prefix.size() + name.size());
  out.append(prefix);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string metrics_to_prometheus(const MetricsRegistry& m,
                                  std::string_view prefix) {
  std::ostringstream out;
  for (const auto& [name, v] : m.counters()) {
    const std::string pn = prometheus_name(prefix, name);
    out << "# TYPE " << pn << " counter\n" << pn << ' ' << v << '\n';
  }
  for (const auto& [name, h] : m.histograms()) {
    const std::string pn = prometheus_name(prefix, name);
    out << "# TYPE " << pn << " histogram\n";
    std::uint64_t cumulative = 0;
    const auto& buckets = h.buckets();
    for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
      if (buckets[i] == 0) continue;
      cumulative += buckets[i];
      // Upper bound of log2 bucket i: largest v with bit_width(v) == i.
      const std::uint64_t le = i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
      out << pn << "_bucket{le=\"" << le << "\"} " << cumulative << '\n';
    }
    // The last bucket (and everything above) folds into +Inf.
    out << pn << "_bucket{le=\"+Inf\"} " << h.count() << '\n'
        << pn << "_sum " << h.sum() << '\n'
        << pn << "_count " << h.count() << '\n';
  }
  return out.str();
}

}  // namespace stemcp::core
