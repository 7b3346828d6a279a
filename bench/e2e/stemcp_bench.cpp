// stemcp_bench: the end-to-end benchmark (bench/e2e/README.md).
//
//   stemcp_bench --workload <name> --seed <n> [--seconds <s>] [--json <file>]
//                [--trace <file>] [--dir <dir>] [--small]
//
// One process runs one workload in kRounds rounds.  Each round generates the
// seeded design and Poisson traffic, sets up a fresh service (2 shards x 1
// worker; every session opened, loaded and journaled through the line
// protocol) kSetupsPerRound times, keeping the last, and then runs
//
//   1. open loop   - requests submitted at their due times; each is timed
//                    from its due time to its formatted response;
//   2. oracle      - every session's state captured (save image plus
//                    `query vars`), the session closed, recovered from its
//                    checkpoint + journal (timed) and captured again; the
//                    two states must be byte-identical;
//   3. closed loop - 64 requests kept in flight; completed / elapsed;
//
// and tears the service down.  It prints one `name workload value unit`
// line per metric and exits nonzero when any check fails.  With --trace it
// also records spans around every call it makes into the service and
// writes them as a Chrome trace.
#include <sys/resource.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "service/design_service.h"
#include "service/protocol.h"
#include "spans.h"
#include "workloads.h"

namespace stemcp::bench {
namespace {

using service::DesignService;
using service::Request;
using service::Response;
using service::ServiceFrontEnd;

constexpr std::uint64_t kFailedNs = ~std::uint64_t{0};  // counts as +inf
constexpr std::size_t kClosedLoopDepth = 64;
constexpr int kRounds = 5;
/// One set-up of the small designs takes a few milliseconds, so setup_s is
/// the median of several per round.
constexpr int kSetupsPerRound = 3;
/// Share of --seconds spent in the open loop; the closed loop gets the rest.
constexpr double kOpenShare = 0.75;
/// A percentile is printed only when it rests on at least this many samples
/// (p99 then has ten samples beyond it).
constexpr std::size_t kMinSamples = 1000;
constexpr std::size_t kMinSamplesSmall = 100;
constexpr double kMaxGenLagP99Us = 1000.0;
constexpr std::size_t kLookupProbes = 1000;
constexpr std::size_t kFsyncProbes = 200;

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void sleep_until_ns(std::uint64_t t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t / 1000000000ull);
  ts.tv_nsec = static_cast<long>(t % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Nearest-rank percentile of an unsorted sample (sorts it).
double percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  const std::uint64_t x = v[rank - 1];
  return x == kFailedNs ? HUGE_VAL : static_cast<double>(x);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// ---------------------------------------------------------------------------
// Checks and metrics

struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  ///< nonzero for percentiles
  };
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< failed checks, one line each
  std::vector<std::string> warnings;  ///< measurement quality, not outputs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint32_t traffic_crc = 0;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// p50 and p99 of one latency class, in ms, if the sample is large enough.
void add_percentiles(Report& r, const std::string& prefix,
                     std::vector<std::uint64_t> ns, std::size_t min_samples) {
  const std::size_t n = ns.size();
  if (n < min_samples) {
    r.check(false, prefix + " percentiles rest on " + std::to_string(n) +
                       " < " + std::to_string(min_samples) + " samples");
    return;
  }
  r.add(prefix + "_p50_ms", percentile(ns, 50) / 1e6, "ms", n);
  r.add(prefix + "_p99_ms", percentile(ns, 99) / 1e6, "ms", n);
}

/// Span ids, unique across the rounds' clients.
std::uint64_t span_id() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

// ---------------------------------------------------------------------------
// Client: one submitter (the caller's thread) and one completion thread per
// shard.  A shard has one worker, so its responses arrive in submission
// order; its completion thread waits on the futures in that order, and the
// stamps it takes are each request's own completion, free of head-of-line
// error.

/// kBatch requests go one per session, and their answers land in result
/// slots (set-up, oracle); the traffic phases are timed instead.
enum class Phase : std::uint8_t { kBatch, kOpen, kClosed };

struct Pending {
  std::future<Response> fut;
  Phase phase = Phase::kBatch;
  Verb verb = Verb::kQuery;
  std::uint64_t due_ns = 0;        ///< when the request was due
  std::uint64_t sent_ns = 0;       ///< when the submitter began parsing
  std::uint64_t parse_ns = 0;
  std::uint64_t submitted_ns = 0;  ///< when submit() returned
  bool traced = false;
  std::size_t slot = 0;            ///< result slot (kBatch)
  const char* span = nullptr;      ///< span name (kBatch)
  std::uint64_t parent = 0;        ///< parent span (kBatch)
};

struct Tally {
  std::vector<std::uint64_t> latency[2];  ///< by Kind
  std::vector<std::uint64_t> solve_latency;
  std::vector<std::uint64_t> write_untraced, write_traced;
  std::vector<std::uint64_t> parse, submit, wait, format;
  std::uint64_t open_done = 0;
  std::uint64_t closed_done = 0;
  std::uint64_t closed_in_window = 0;
  std::uint64_t failed = 0;
  std::uint64_t write_violations = 0;
  std::uint64_t solves = 0;
  std::uint64_t solve_nodes = 0;
  std::vector<std::string> errors;  ///< first few failure texts
  std::vector<Span> spans;

  void merge(const Tally& t) {
    for (int k = 0; k < 2; ++k) append(latency[k], t.latency[k]);
    append(solve_latency, t.solve_latency);
    append(write_untraced, t.write_untraced);
    append(write_traced, t.write_traced);
    append(parse, t.parse);
    append(submit, t.submit);
    append(wait, t.wait);
    append(format, t.format);
    open_done += t.open_done;
    closed_done += t.closed_done;
    closed_in_window += t.closed_in_window;
    failed += t.failed;
    write_violations += t.write_violations;
    solves += t.solves;
    solve_nodes += t.solve_nodes;
    errors.insert(errors.end(), t.errors.begin(), t.errors.end());
    spans.insert(spans.end(), t.spans.begin(), t.spans.end());
  }

 private:
  static void append(std::vector<std::uint64_t>& to,
                     const std::vector<std::uint64_t>& from) {
    to.insert(to.end(), from.begin(), from.end());
  }
};

struct Result {
  Response resp;
  std::uint64_t start_ns = 0;  ///< the shard began this request
  std::uint64_t end_ns = 0;    ///< the response arrived
};

class Client {
 public:
  Client(DesignService& svc, bool trace) : svc_(svc), trace_(trace) {
    for (std::size_t i = 0; i < kShards; ++i) {
      lanes_.push_back(std::make_unique<Lane>());
      lanes_.back()->tid = static_cast<std::uint32_t>(i + 1);
    }
    for (std::size_t i = 0; i < kShards; ++i) {
      lanes_[i]->thread = std::thread([this, i] { complete_loop(i); });
    }
  }
  ~Client() {
    for (auto& lane : lanes_) {
      {
        const std::lock_guard<std::mutex> lock(lane->mu);
        lane->stopping = true;
      }
      lane->cv.notify_all();
    }
    for (auto& lane : lanes_) lane->thread.join();
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Parse `line` and submit it.  Caller's thread only.
  void submit(const std::string& line, Pending p) {
    p.sent_ns = now_ns();
    Request req;
    std::string error;
    const bool parsed = ServiceFrontEnd::parse(line, &req, &error);
    const std::uint64_t t_parsed = now_ns();
    p.parse_ns = t_parsed - p.sent_ns;
    std::size_t shard = 0;
    if (parsed) {
      shard = svc_.sessions().shard_of(req.session);
      p.fut = svc_.submit(std::move(req));
    } else {
      std::promise<Response> failed;
      Response resp;
      resp.error = "parse: " + error;
      failed.set_value(std::move(resp));
      p.fut = failed.get_future();
    }
    p.submitted_ns = now_ns();
    {
      const std::lock_guard<std::mutex> lock(done_mu_);
      ++outstanding_;
    }
    Lane& lane = *lanes_[shard];
    {
      const std::lock_guard<std::mutex> lock(lane.mu);
      lane.queue.push_back(std::move(p));
    }
    lane.cv.notify_one();
  }

  /// Block until every submitted request has been answered.
  void drain() {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

  /// Block while `depth` or more requests are outstanding, or until `until`.
  void wait_below(std::size_t depth, std::uint64_t until) {
    std::unique_lock<std::mutex> lock(done_mu_);
    while (outstanding_ >= depth && now_ns() < until) {
      done_cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
  }

  /// Make room for `n` batch results (nothing may be outstanding).
  void begin_batch(std::size_t n) {
    drain();
    results_.assign(n, Result{});
  }
  std::vector<Result>& results() { return results_; }

  void set_closed_window_end(std::uint64_t t) { closed_end_ns_ = t; }

  /// Per-shard tallies; read only after drain().
  const Tally& tally(std::size_t shard) const { return lanes_[shard]->tally; }

 private:
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool stopping = false;
    std::uint64_t last_got_ns = 0;  ///< completion thread only
    std::uint32_t tid = 0;
    Tally tally;                    ///< completion thread only until drain()
    std::thread thread;             ///< declared last: uses the members above
  };

  void complete_loop(std::size_t shard) {
    Lane& lane = *lanes_[shard];
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(lane.mu);
        lane.cv.wait(lock,
                     [&] { return lane.stopping || !lane.queue.empty(); });
        if (lane.queue.empty()) return;
        p = std::move(lane.queue.front());
        lane.queue.pop_front();
      }
      Response resp = p.fut.get();
      const std::uint64_t got = now_ns();
      const std::string text = ServiceFrontEnd::format(resp);
      const std::uint64_t done = now_ns();
      // One worker per shard: this request started when the previous one
      // on the shard was answered, or when it was submitted.
      const std::uint64_t start = std::max(p.submitted_ns, lane.last_got_ns);
      lane.last_got_ns = got;
      finish(lane, p, std::move(resp), text, start, got, done);
      {
        const std::lock_guard<std::mutex> lock(done_mu_);
        --outstanding_;
      }
      done_cv_.notify_all();
    }
  }

  void finish(Lane& lane, Pending& p, Response resp, const std::string& text,
              std::uint64_t start, std::uint64_t got, std::uint64_t done) {
    Tally& t = lane.tally;
    if (p.phase == Phase::kBatch) {
      if (trace_ && p.span != nullptr) {
        t.spans.push_back(
            {span_id(), p.parent, 0, p.span, start, got, lane.tid});
      }
      results_[p.slot] = Result{std::move(resp), start, got};
      return;
    }
    if (!resp.ok) {
      ++t.failed;
      if (t.errors.size() < 4) t.errors.push_back(text);
    }
    if (p.phase == Phase::kClosed) {
      ++t.closed_done;
      if (done <= closed_end_ns_) ++t.closed_in_window;
      return;
    }
    const Kind kind = kind_of(p.verb);
    const std::uint64_t latency = resp.ok ? done - p.due_ns : kFailedNs;
    t.latency[static_cast<int>(kind)].push_back(latency);
    if (kind == Kind::kWrite) {
      if (resp.violation) ++t.write_violations;
      (p.traced ? t.write_traced : t.write_untraced).push_back(latency);
    }
    if (p.verb == Verb::kSelect && resp.ok) {
      t.solve_latency.push_back(latency);
      ++t.solves;
      check_select(t, resp.text);
    }
    t.parse.push_back(p.parse_ns);
    t.submit.push_back(p.submitted_ns - p.sent_ns - p.parse_ns);
    t.wait.push_back(got - p.submitted_ns);
    t.format.push_back(done - got);
    ++t.open_done;
    if (p.traced) {
      const std::uint64_t root = span_id();
      const std::uint64_t parsed = p.sent_ns + p.parse_ns;
      t.spans.push_back({root, 0, root, "request", p.due_ns, done, lane.tid});
      t.spans.push_back({span_id(), root, root, "service.parse", p.sent_ns,
                         parsed, lane.tid});
      t.spans.push_back({span_id(), root, root, "service.submit", parsed,
                         p.submitted_ns, lane.tid});
      t.spans.push_back({span_id(), root, root, "service.wait", p.submitted_ns,
                         got, lane.tid});
      t.spans.push_back(
          {span_id(), root, root, "service.format", got, done, lane.tid});
    }
  }

  /// A select must find a solution (the budget admits the fastest picks)
  /// and report its search nodes.
  static void check_select(Tally& t, const std::string& text) {
    const std::size_t at = text.rfind(" solution(s); explored ");
    if (at == std::string::npos) {
      ++t.failed;
      if (t.errors.size() < 4) t.errors.push_back("select: " + text);
      return;
    }
    const std::size_t line = text.rfind('\n', at);
    unsigned long long found = 0, cands = 0, pruned = 0, nodes = 0;
    const int n = std::sscanf(
        text.c_str() + (line == std::string::npos ? 0 : line + 1),
        "%llu solution(s); explored %llu candidate(s), pruned %llu "
        "subtree(s), %llu search node(s)",
        &found, &cands, &pruned, &nodes);
    if (n != 4 || found == 0) {
      ++t.failed;
      if (t.errors.size() < 4) t.errors.push_back("select: " + text);
      return;
    }
    t.solve_nodes += nodes;
  }

  DesignService& svc_;
  const bool trace_;
  std::vector<Result> results_;
  std::uint64_t closed_end_ns_ = 0;  ///< written before the closed loop
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::size_t outstanding_ = 0;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

// ---------------------------------------------------------------------------
// Counters read from the sessions themselves (public service API, under
// each session's mutex).  The run adds up their differences across each
// round's open loop, so loading the design is not counted as traffic work.

struct Counters {
  enum : std::size_t {
    kAssignments,
    kActivations,
    kRuns,
    kChecks,
    kRestores,
    kJournalRecords,
    kJournalBytes,
    kJournalFsyncs,
    kCandidates,
    kCount
  };
  std::array<std::uint64_t, kCount> v{};

  void add_difference(const Counters& before, const Counters& after) {
    for (std::size_t i = 0; i < kCount; ++i) v[i] += after.v[i] - before.v[i];
  }
};

Counters read_counters(DesignService& svc,
                       const std::vector<std::string>& sessions) {
  Counters c;
  for (const std::string& name : sessions) {
    const auto s = svc.sessions().find(name);
    if (s == nullptr) continue;
    const std::lock_guard<std::mutex> lock(s->mutex());
    const auto& st = s->library().context().stats();
    c.v[Counters::kAssignments] += st.assignments;
    c.v[Counters::kActivations] += st.activations;
    c.v[Counters::kRuns] += st.scheduled_runs;
    c.v[Counters::kChecks] += st.checks;
    c.v[Counters::kRestores] += st.restores;
    if (const persist::Journal* j = s->journal()) {
      c.v[Counters::kJournalRecords] += j->records_written();
      c.v[Counters::kJournalBytes] += j->bytes_written();
      c.v[Counters::kJournalFsyncs] += j->fsyncs();
    }
    c.v[Counters::kCandidates] += s->selection_tally().candidates_explored;
  }
  return c;
}

/// Per-phase sums and counts from the service's telemetry folds.  Sums and
/// counts are exact (only the fold's buckets are log2), so their ratio is
/// an exact mean.
struct PhaseTotals {
  static constexpr const char* kPhases[] = {"queue", "lock", "propagate",
                                            "journal", "fsync"};
  std::array<std::uint64_t, 5> sum{}, count{};

  void add_difference(const core::MetricsRegistry& before,
                      const core::MetricsRegistry& after) {
    for (std::size_t i = 0; i < sum.size(); ++i) {
      const std::string name = std::string("svc.lat.") + kPhases[i] + "_ns";
      const core::Histogram* a = after.find_histogram(name);
      if (a == nullptr) continue;
      const core::Histogram* b = before.find_histogram(name);
      sum[i] += a->sum() - (b != nullptr ? b->sum() : 0);
      count[i] += a->count() - (b != nullptr ? b->count() : 0);
    }
  }
  double mean_us(std::size_t i) const {
    return count[i] == 0 ? 0.0
                         : static_cast<double>(sum[i]) /
                               static_cast<double>(count[i]) / 1e3;
  }
};

// ---------------------------------------------------------------------------
// The run

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::string json_path;
  std::string trace_path;
  std::string dir;
  bool small = false;
};

/// A private journal directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    std::string pattern = parent + "/stemcp_bench.XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) != nullptr) path_ = buf.data();
  }
  ~TempDir() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One set-up service with its sessions opened, loaded and journaled.
struct Stage {
  std::unique_ptr<Workload> w;
  std::vector<Op> ops;  ///< this round's open-loop traffic
  std::uint32_t crc = 0;  ///< of the design and every round's traffic
  std::string root;
  // Destroyed in reverse: the client (its completion threads) before the
  // service it waits on.
  std::unique_ptr<DesignService> svc;
  std::unique_ptr<Client> client;
  std::vector<double> load_ms;
  std::vector<Span> spans;  ///< main-thread spans
};

std::string journal_base(const std::string& session) { return "j_" + session; }

std::uint32_t ops_crc(const std::vector<Op>& ops) {
  std::string all;
  for (const Op& op : ops) {
    all += std::to_string(op.due_ns);
    all += ' ';
    all += op.line;
    all += '\n';
  }
  return persist::crc32(all);
}

/// Send line(session) for every session at once and wait for all the
/// answers (in c.results(), session order).
template <typename Line>
void each_session(Stage& st, Line line, const char* span = nullptr,
                  std::uint64_t parent = 0) {
  Client& c = *st.client;
  const std::vector<std::string>& names = st.w->sessions;
  c.begin_batch(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    Pending p;
    p.slot = i;
    p.span = span;
    p.parent = parent;
    c.submit(line(names[i]), std::move(p));
  }
  c.drain();
}

/// Record a failed check for every failed answer of the last batch.
void check_batch(Stage& st, Report& r, const std::string& what) {
  for (const Result& res : st.client->results()) {
    r.check(res.resp.ok, what + " failed: " + res.resp.error);
  }
}

/// Generate the seeded design and every round's traffic, keeping only
/// `round`'s, so the benchmark's own buffers stay small beside the
/// program's in peak_rss_mb.  Not part of setup_s: this is the benchmark's
/// own work, and it grows with --seconds.
void generate(const Options& o, int round, bool trace, Stage& st) {
  const std::uint64_t t0 = now_ns();
  st.w = make_workload(o.workload, o.seed, o.small);
  Rng rng(o.seed);
  std::string crcs = std::to_string(persist::crc32(st.w->design));
  for (int i = 0; i < kRounds; ++i) {
    std::vector<Op> ops =
        open_loop_traffic(*st.w, rng, o.seconds * kOpenShare / kRounds);
    crcs += ' ' + std::to_string(ops_crc(ops));
    if (i == round) st.ops = std::move(ops);
  }
  st.crc = persist::crc32(crcs);
  if (trace) {
    st.spans.push_back({span_id(), 0, 0, "bench.generate", t0, now_ns(), 0});
  }
}

/// Start the service, open + load + journal every session.  Returns the
/// elapsed seconds: one sample of setup_wall_s.
double set_up(const std::string& root, bool trace, Stage& st, Report& r) {
  const std::uint64_t t0 = now_ns();
  st.root = root;
  st.svc = std::make_unique<DesignService>(
      DesignService::Config{1, kShards, root});
  st.client = std::make_unique<Client>(*st.svc, trace);
  const std::uint64_t t_svc = now_ns();
  const std::uint64_t setup_span = span_id();

  each_session(
      st, [](const std::string& s) { return "open " + s; }, "service.open",
      setup_span);
  check_batch(st, r, "open");
  each_session(
      st,
      [&st](const std::string& s) {
        Request load;
        load.type = service::RequestType::kLoad;
        load.session = s;
        load.text = st.w->design;
        std::string line;
        ServiceFrontEnd::render(load, &line);
        return line;
      },
      "stem.load", setup_span);
  check_batch(st, r, "load");
  for (const Result& res : st.client->results()) {
    st.load_ms.push_back(static_cast<double>(res.end_ns - res.start_ns) / 1e6);
  }
  each_session(
      st,
      [&st](const std::string& s) {
        return "journal " + s + " " + journal_base(s) + " " +
               st.w->journal_policy;
      },
      "persist.attach", setup_span);
  check_batch(st, r, "journal");
  const std::uint64_t t1 = now_ns();
  if (trace) {
    st.spans.push_back({setup_span, 0, 0, "bench.setup", t0, t1, 0});
    st.spans.push_back(
        {span_id(), setup_span, 0, "service.start", t0, t_svc, 0});
  }
  return static_cast<double>(t1 - t0) / 1e9;
}

/// Destroy the service set up by set_up(), keeping its client's spans, and
/// remove its journals.
void tear_down(Stage& st) {
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::vector<Span>& s = st.client->tally(i).spans;
    st.spans.insert(st.spans.end(), s.begin(), s.end());
  }
  st.client.reset();  // joins the completion threads, then the service
  st.svc.reset();
  std::error_code ec;
  std::filesystem::remove_all(st.root, ec);
}

/// Submit one round's open-loop traffic at its due times, appending the
/// submitter's lateness per request (ns) to `lag`.
void open_loop(Stage& st, const std::vector<Op>& ops, bool traced,
               std::vector<std::uint64_t>& lag) {
  Client& c = *st.client;
  const std::uint64_t base = now_ns() + 20000000;  // 20 ms lead
  for (const Op& op : ops) {
    const std::uint64_t due = base + op.due_ns;
    if (now_ns() < due) sleep_until_ns(due);
    const std::uint64_t t = now_ns();
    lag.push_back(t > due ? t - due : 0);
    Pending p;
    p.phase = Phase::kOpen;
    p.verb = op.verb;
    p.due_ns = due;
    p.traced = traced;
    c.submit(op.line, std::move(p));
  }
  c.drain();
}

/// Every session's full state: its save image, which holds the classes,
/// and every variable's value and justification, which the image omits
/// for instance-level #USER assignments.
std::vector<std::string> snapshot(Stage& st, Report& r, const char* when) {
  each_session(st, [](const std::string& s) { return "save " + s; });
  check_batch(st, r, std::string("save ") + when);
  std::vector<std::string> state;
  for (const Result& res : st.client->results()) {
    state.push_back(res.resp.text);
  }
  each_session(st, [](const std::string& s) { return "query " + s + " vars"; });
  check_batch(st, r, std::string("query vars ") + when);
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] += st.client->results()[i].resp.text;
  }
  return state;
}

/// Snapshot, close, recover (timed) and snapshot again; the states must be
/// byte-identical.  Returns the recovery time; adds the records replayed.
double recovery_oracle(Stage& st, bool trace, Report& r,
                       std::uint64_t* replayed) {
  Client& c = *st.client;
  const std::vector<std::string>& names = st.w->sessions;
  const std::vector<std::string> live = snapshot(st, r, "before close");
  each_session(st, [](const std::string& s) { return "close " + s; });
  check_batch(st, r, "close");
  const std::uint64_t recovery_span = span_id();
  const std::uint64_t t0 = now_ns();
  each_session(
      st,
      [](const std::string& s) {
        return "recover " + s + " " + journal_base(s);
      },
      "persist.recover", recovery_span);
  const std::uint64_t t1 = now_ns();
  if (trace) {
    st.spans.push_back({recovery_span, 0, 0, "bench.recovery", t0, t1, 0});
  }
  for (const Result& res : c.results()) {
    unsigned long long n = 0, mismatches = 1;
    const std::size_t at = res.resp.text.find("replayed ");
    const bool parsed =
        at != std::string::npos &&
        std::sscanf(res.resp.text.c_str() + at,
                    "replayed %llu record(s), %llu outcome mismatch(es)", &n,
                    &mismatches) == 2;
    r.check(res.resp.ok && parsed && mismatches == 0,
            "recover failed: " + res.resp.error + res.resp.text);
    *replayed += n;
  }
  const std::vector<std::string> recovered = snapshot(st, r, "after recover");
  for (std::size_t i = 0; i < names.size(); ++i) {
    r.check(recovered[i] == live[i],
            "recovered state of " + names[i] + " differs from the live one");
  }
  return static_cast<double>(t1 - t0) / 1e9;
}

/// Keep kClosedLoopDepth requests in flight for `seconds`.
void closed_loop(Stage& st, Rng& rng, double seconds,
                 std::uint64_t* attempted) {
  Client& c = *st.client;
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  c.set_closed_window_end(end);
  while (now_ns() < end) {
    c.wait_below(kClosedLoopDepth, end);
    if (now_ns() >= end) break;
    const Op op = st.w->model->next(rng);
    Pending p;
    p.phase = Phase::kClosed;
    p.verb = op.verb;
    c.submit(op.line, std::move(p));
    ++*attempted;
  }
  c.drain();
}

/// The variable path a request names, or "" (assign targets, queries).
std::string named_path(const std::string& line, std::string* session) {
  Request req;
  std::string error;
  if (!ServiceFrontEnd::parse(line, &req, &error)) return {};
  *session = req.session;
  if (!req.assignments.empty()) return req.assignments.front().variable;
  if (req.type == service::RequestType::kQuery) return req.text;
  return {};
}

/// Traced runs only: time find_variable on the paths the traffic names,
/// under each session's mutex, with the service idle.
std::vector<std::uint64_t> lookup_probe(Stage& st, std::uint64_t parent) {
  std::vector<std::uint64_t> ns;
  const std::uint64_t budget_end = now_ns() + 2000000000ull;  // 2 s
  for (const Op& op : st.ops) {
    if (ns.size() >= kLookupProbes || now_ns() >= budget_end) return ns;
    std::string session;
    const std::string path = named_path(op.line, &session);
    const auto s = path.empty() ? nullptr : st.svc->sessions().find(session);
    if (s == nullptr) continue;
    const std::lock_guard<std::mutex> lock(s->mutex());
    const std::uint64_t t0 = now_ns();
    const core::Variable* v = s->find_variable(path);
    const std::uint64_t t1 = now_ns();
    if (v == nullptr) continue;
    ns.push_back(t1 - t0);
    st.spans.push_back({span_id(), parent, 0, "service.lookup", t0, t1, 0});
  }
  return ns;
}

/// Traced runs only: re-append this run's own journal records to a probe
/// journal that fsyncs every record.  Returns each append's fsync time.
std::vector<std::uint64_t> fsync_probe(Stage& st, std::uint64_t parent) {
  std::vector<std::uint64_t> ns;
  const std::string& session = st.w->sessions.front();
  const std::string base = st.svc->sessions().resolve_base(
      st.svc->sessions().shard_of(session), journal_base(session));
  const persist::JournalScan scan =
      persist::scan_journal(persist::journal_path(base));
  persist::Journal::Options opts;
  opts.fsync = persist::FsyncPolicy::kEveryRecord;
  opts.truncate = true;
  std::string error;
  auto j = persist::Journal::open(st.root + "/probe.journal", opts, &error);
  if (j == nullptr) return ns;
  for (std::size_t i = 0; i < kFsyncProbes && !scan.records.empty(); ++i) {
    persist::JournalRecord rec = scan.records[i % scan.records.size()];
    const std::uint64_t t0 = now_ns();
    if (!j->append(rec)) break;
    ns.push_back(j->last_fsync_ns());
    st.spans.push_back(
        {span_id(), parent, 0, "persist.append", t0, now_ns(), 0});
  }
  return ns;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

void write_json(const Options& o, const Report& r) {
  std::ofstream f(o.json_path);
  f << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
    << ", \"traced\": " << (o.trace_path.empty() ? "false" : "true")
    << ", \"correct\": " << (r.failures.empty() ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"traffic_crc\": \"";
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", r.traffic_crc);
  auto strings = [&f](const std::vector<std::string>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      f << (i ? ", " : "") << '"' << json_escape(v[i]) << '"';
    }
  };
  f << crc << "\", \"checks_failed\": [";
  strings(r.failures);
  f << "], \"warnings\": [";
  strings(r.warnings);
  f << "], \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Report::Metric& m = r.metrics[i];
    // A failed request is an infinite latency, which JSON cannot spell.
    if (std::isfinite(m.value)) {
      std::snprintf(num, sizeof num, "%.9g", m.value);
    } else {
      std::snprintf(num, sizeof num, "null");
    }
    f << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << num
      << ", \"unit\": \"" << m.unit << '"';
    if (m.samples > 0) f << ", \"samples\": " << m.samples;
    f << '}';
  }
  f << "}}\n";
}

int run(const Options& o) {
  Report r;
  const bool trace = !o.trace_path.empty();
  const std::size_t min_samples = o.small ? kMinSamplesSmall : kMinSamples;
  // Precise wakeups for the open-loop submitter (this thread).
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  // Earlier writers' dirty pages must not be flushed inside our fsyncs.
  sync();

  TempDir tmp(o.dir);
  if (tmp.path().empty()) {
    std::fprintf(stderr, "stemcp_bench: cannot create a temp dir under %s\n",
                 o.dir.c_str());
    return 2;
  }

  // Each round sets the service up afresh, runs one open-loop segment, the
  // recovery oracle and one closed-loop segment, and tears it down.  Rounds
  // spread every phase over the whole run, so each metric sees the same mix
  // of machine states, and every recovery replays from the checkpoint taken
  // when the journal was attached.  setup_s is the median over every set-up
  // of every round of the CPU time (all threads) a set-up uses: a few-ms
  // set-up is mostly thread hand-offs, and its wall time doubled when other
  // tenants' load delayed wakeups, while its CPU time moved about a tenth.
  // Traced runs trace every other round; the two halves give the overhead.
  std::vector<double> setup_s, setup_wall_s;
  std::vector<double> load_ms;
  std::uint32_t first_crc = 0;
  Tally all;
  Counters counters;
  PhaseTotals phases;
  std::vector<std::uint64_t> lag;
  std::vector<std::uint64_t> lookup, fsync;
  // Per-round values; the reported figure is their median.
  std::vector<double> throughput, recover_s, cpu_us;
  std::uint64_t replayed = 0;
  std::uint64_t open_attempted = 0;
  std::uint64_t closed_attempted = 0;
  Rng closed_rng(o.seed ^ 0xC105EDull);
  const double closed_s = o.seconds * (1.0 - kOpenShare) / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    const std::string root = tmp.path() + "/round" + std::to_string(round);
    auto st = std::make_unique<Stage>();
    generate(o, round, trace, *st);
    for (int k = 0; k < kSetupsPerRound; ++k) {
      if (k > 0) tear_down(*st);
      const double cpu0 = cpu_seconds();
      setup_wall_s.push_back(set_up(root, trace, *st, r));
      setup_s.push_back(cpu_seconds() - cpu0);
    }
    if (round == 0) first_crc = st->crc;
    r.check(st->crc == first_crc,
            "two generations of one seed gave different traffic");
    const std::vector<Op>& ops = st->ops;
    const std::vector<std::string>& sessions = st->w->sessions;
    const bool traced_round = trace && round % 2 == 1;

    const Counters before = read_counters(*st->svc, sessions);
    const core::MetricsRegistry fold_before = st->svc->telemetry().fold();
    const double cpu0 = cpu_seconds();
    open_loop(*st, ops, traced_round, lag);
    const double cpu_s = cpu_seconds() - cpu0;
    phases.add_difference(fold_before, st->svc->telemetry().fold());
    counters.add_difference(before, read_counters(*st->svc, sessions));
    open_attempted += ops.size();

    recover_s.push_back(recovery_oracle(*st, trace, r, &replayed));
    closed_loop(*st, closed_rng, closed_s, &closed_attempted);

    if (trace && round + 1 == kRounds) {
      const std::uint64_t probe_span = span_id();
      const std::uint64_t t0 = now_ns();
      lookup = lookup_probe(*st, probe_span);
      fsync = fsync_probe(*st, probe_span);
      st->spans.push_back({probe_span, 0, 0, "bench.probe", t0, now_ns(), 0});
    }
    Tally t;
    for (std::size_t i = 0; i < kShards; ++i) t.merge(st->client->tally(i));
    throughput.push_back(static_cast<double>(t.closed_in_window) / closed_s);
    cpu_us.push_back(
        cpu_s * 1e6 /
        static_cast<double>(std::max<std::uint64_t>(1, t.open_done)));
    all.merge(t);
    all.spans.insert(all.spans.end(), st->spans.begin(), st->spans.end());
    load_ms.insert(load_ms.end(), st->load_ms.begin(), st->load_ms.end());
    st.reset();  // joins the completion threads, then the service
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
  }
  r.traffic_crc = first_crc;
  r.attempted = open_attempted + closed_attempted;
  r.failed = all.failed + (r.attempted - all.open_done - all.closed_done);
  r.check(r.failed == 0, std::to_string(r.failed) + " of " +
                             std::to_string(r.attempted) +
                             " requests failed" +
                             (all.errors.empty() ? "" : ": " + all.errors[0]));

  // ---- end-to-end metrics --------------------------------------------------
  const std::uint64_t writes = all.latency[0].size();
  r.add("setup_s", median(setup_s), "s");
  r.add("setup_wall_s", median(setup_wall_s), "s");
  add_percentiles(r, "write", all.latency[0], min_samples);
  add_percentiles(r, "read", all.latency[1], min_samples);
  if (!all.solve_latency.empty()) {
    add_percentiles(r, "solve", all.solve_latency, min_samples);
  }
  r.add("throughput_rps", median(throughput), "req/s");
  r.add("recover_s", median(recover_s), "s");
  r.add("cpu_us_per_req", median(cpu_us), "us");
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  r.add("fail_frac",
        static_cast<double>(r.failed) /
            static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
        "ratio");

  // ---- per-layer metrics ---------------------------------------------------
  const double lag_p99_us = percentile(lag, 99) / 1e3;
  r.add("bench.gen_lag_us_p99", lag_p99_us, "us", lag.size());
  r.add("bench.gen_lag_us_max", percentile(lag, 100) / 1e3, "us", lag.size());
  // A starved submitter taints the latencies but not the outputs: say so,
  // and leave the verdict on the run to whoever reads the numbers.
  if (lag_p99_us > kMaxGenLagP99Us) {
    r.warnings.push_back("submitter ran late: gen_lag p99 " +
                         std::to_string(lag_p99_us) + " us > 1000 us");
  }
  r.add("service.parse_us_p50", percentile(all.parse, 50) / 1e3, "us");
  r.add("service.submit_us_p50", percentile(all.submit, 50) / 1e3, "us");
  r.add("service.wait_us_p50", percentile(all.wait, 50) / 1e3, "us");
  r.add("service.format_us_p50", percentile(all.format, 50) / 1e3, "us");
  r.add("service.queue_us_mean", phases.mean_us(0), "us");
  r.add("service.lock_us_mean", phases.mean_us(1), "us");
  r.add("service.work_us_mean", phases.mean_us(2), "us");
  r.add("persist.append_us_mean", phases.mean_us(3), "us");
  r.add("persist.live_fsync_us_mean", phases.mean_us(4), "us");
  const auto per = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const auto& v = counters.v;
  const std::uint64_t records = v[Counters::kJournalRecords];
  r.add("persist.records_per_fsync",
        per(records, std::max<std::uint64_t>(1, v[Counters::kJournalFsyncs])),
        "count");
  r.add("persist.bytes_per_record", per(v[Counters::kJournalBytes], records),
        "bytes");
  double recover_total_s = 0.0;
  for (const double x : recover_s) recover_total_s += x;
  r.add("persist.replay_us_per_record",
        replayed == 0 ? 0.0
                      : recover_total_s * 1e6 / static_cast<double>(replayed),
        "us");
  r.add("core.assignments_per_write", per(v[Counters::kAssignments], writes),
        "count");
  r.add("core.activations_per_write", per(v[Counters::kActivations], writes),
        "count");
  r.add("core.runs_per_write", per(v[Counters::kRuns], writes), "count");
  r.add("core.checks_per_write", per(v[Counters::kChecks], writes), "count");
  r.add("core.restores_per_write", per(v[Counters::kRestores], writes),
        "count");
  r.add("core.violation_frac", per(all.write_violations, writes), "ratio");
  r.add("fd.candidates_per_solve", per(v[Counters::kCandidates], all.solves),
        "count");
  r.add("fd.nodes_per_solve", per(all.solve_nodes, all.solves), "count");
  r.add("stem.load_ms", median(load_ms), "ms");
  if (trace) {
    r.add("service.lookup_us_p50", percentile(lookup, 50) / 1e3, "us",
          lookup.size());
    r.add("persist.fsync_us_p50", percentile(fsync, 50) / 1e3, "us",
          fsync.size());
    r.add("persist.fsync_us_p95", percentile(fsync, 95) / 1e3, "us",
          fsync.size());
    r.check(!lookup.empty() && !fsync.empty(), "layer probes took no samples");
    const double untraced = percentile(all.write_untraced, 50);
    const double traced = percentile(all.write_traced, 50);
    r.add("bench.trace_overhead_frac",
          untraced > 0.0 ? traced / untraced - 1.0 : 0.0, "ratio");
    for (const SelfTime& s : self_times(all.spans)) {
      r.add("self." + s.name + "_us_mean",
            s.total_us / static_cast<double>(s.count), "us");
    }
    std::string error;
    r.check(write_chrome_trace(o.trace_path, all.spans, &error), error);
  }

  for (const Report::Metric& m : r.metrics) {
    std::printf("%s %s %.6g %s", m.name.c_str(), o.workload.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) std::printf(" n=%zu", m.samples);
    std::printf("\n");
  }
  std::printf("traffic_crc %s %08x crc\n", o.workload.c_str(), r.traffic_crc);
  for (const std::string& w : r.warnings) {
    std::printf("WARNING: %s\n", w.c_str());
  }
  for (const std::string& f : r.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  if (!o.json_path.empty()) write_json(o, r);
  return r.failures.empty() ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "stemcp_bench: %s\nusage: stemcp_bench --workload <name> "
               "--seed <n> [--seconds <s>] [--json <file>] [--trace <file>] "
               "[--dir <dir>] [--small]\nworkloads:",
               why);
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace stemcp::bench

int main(int argc, char** argv) {
  using namespace stemcp::bench;
  Options o;
  const char* tmpdir = std::getenv("TMPDIR");
  o.dir = tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--small") {
      o.small = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      const char* text = argv[++i];
      char* end = nullptr;
      o.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') return usage("--seed needs an integer");
    } else if (a == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) {
        return usage("--seconds needs a number in (0, 600]");
      }
    } else if (a == "--json") {
      o.json_path = argv[++i];
    } else if (a == "--trace") {
      o.trace_path = argv[++i];
    } else if (a == "--dir") {
      o.dir = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    return usage("unknown or missing --workload");
  }
  return run(o);
}
