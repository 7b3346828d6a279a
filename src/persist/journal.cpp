#include "persist/journal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "core/trace.h"

namespace stemcp::persist {

namespace {

constexpr std::uint64_t kNoLimit = ~0ull;
constexpr std::string_view kTag = "J2";

/// fsync the directory containing `path` so a rename within it is durable.
bool sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return false;
  const bool ok = ::fsync(dfd) == 0;
  ::close(dfd);
  return ok;
}

/// <seq> <ok|violation> <applied> <restored> <request-line>
bool decode_body(std::string_view body, JournalRecord* out,
                 std::string* error) {
  std::string_view outcome;
  if (!take_u64(&body, &out->seq) || !take_word(&body, &outcome) ||
      (outcome != "ok" && outcome != "violation") ||
      !take_u64(&body, &out->applied) || !take_u64(&body, &out->restored) ||
      body.empty()) {
    *error = "bad record fields (want <seq> <ok|violation> <applied> "
             "<restored> <request-line>)";
    return false;
  }
  out->violation = outcome == "violation";
  out->line.assign(body);
  return true;
}

}  // namespace

const char* to_string(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kEveryRecord: return "every-record";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kGroupCommit: return "group-commit";
  }
  return "?";
}

bool fsync_policy_from(const std::string& s, FsyncPolicy* out) {
  if (s == "every-record") {
    *out = FsyncPolicy::kEveryRecord;
  } else if (s == "interval") {
    *out = FsyncPolicy::kInterval;
  } else if (s == "none") {
    *out = FsyncPolicy::kNone;
  } else if (s == "group-commit") {
    *out = FsyncPolicy::kGroupCommit;
  } else {
    return false;
  }
  return true;
}

bool journal_options_from(const std::string& text, Journal::Options* out,
                          std::string* error) {
  std::istringstream in(text);
  const std::vector<std::string> words{std::istream_iterator<std::string>(in),
                                       std::istream_iterator<std::string>()};
  const auto is_knob = [](const std::string& w) {
    return w == "batch" || w == "delay-us" || w == "segment";
  };
  const auto count = [](const std::string& w, std::uint64_t* n) {
    const char* end = w.data() + w.size();
    const auto [p, ec] = std::from_chars(w.data(), end, *n);
    return ec == std::errc() && p == end;
  };
  std::size_t i = 0;
  std::uint64_t n = 0;
  if (i < words.size() && !is_knob(words[i])) {
    if (!fsync_policy_from(words[i], &out->fsync)) {
      *error = "unknown fsync policy '" + words[i] +
               "' (every-record|interval|none|group-commit)";
      return false;
    }
    ++i;
    if (out->fsync == FsyncPolicy::kInterval && i < words.size() &&
        count(words[i], &n) && n > 0 && n <= UINT32_MAX) {
      out->fsync_interval_records = static_cast<std::uint32_t>(n);
      ++i;
    }
  }
  for (; i < words.size(); i += 2) {
    const std::string& w = words[i];
    if (!is_knob(w)) {
      *error = "unknown journal option '" + w +
               "' (batch <n>|delay-us <n>|segment <bytes>)";
      return false;
    }
    if (i + 1 == words.size() || !count(words[i + 1], &n) ||
        (n == 0 && w != "delay-us") || (w != "segment" && n > UINT32_MAX)) {
      *error = "journal option '" + w + "' needs a number in range";
      return false;
    }
    if (w == "batch") {
      out->group_max_batch_records = static_cast<std::uint32_t>(n);
    } else if (w == "delay-us") {
      out->group_max_delay_us = static_cast<std::uint32_t>(n);
    } else {
      out->segment_bytes = n;
    }
  }
  return true;
}

std::string to_string(const Journal::Options& o) {
  std::string out = to_string(o.fsync);
  if (o.fsync == FsyncPolicy::kInterval) {
    out += ' ' + std::to_string(o.fsync_interval_records);
  }
  if (o.fsync == FsyncPolicy::kGroupCommit) {
    out += " batch " + std::to_string(o.group_max_batch_records) +
           " delay-us " + std::to_string(o.group_max_delay_us);
  }
  if (o.segment_bytes > 0) out += " segment " + std::to_string(o.segment_bytes);
  return out;
}

std::string encode_record(const JournalRecord& r) {
  char fields[96];
  const int n = std::snprintf(
      fields, sizeof fields, "%llu %s %llu %llu",
      static_cast<unsigned long long>(r.seq), r.violation ? "violation" : "ok",
      static_cast<unsigned long long>(r.applied),
      static_cast<unsigned long long>(r.restored));
  std::string out;
  append_framed(kTag, std::string_view(fields, static_cast<std::size_t>(n)),
                r.line, &out);
  return out;
}

bool decode_record(std::string_view line, JournalRecord* out,
                   std::string* error) {
  *out = JournalRecord{};
  std::string_view body;
  return decode_framed(line, kTag, &body, error) &&
         decode_body(body, out, error);
}

// ---------------------------------------------------------------------------
// CommitTicket

bool CommitTicket::wait() {
  if (state_ == nullptr) return false;
  std::unique_lock<std::mutex> lock(state_->mu);
  if (!state_->done) {
    const std::uint64_t t0 = core::Tracer::now_ns();
    state_->cv.wait(lock, [this] { return state_->done; });
    wait_ns_ = core::Tracer::now_ns() - t0;
  }
  return state_->ok;
}

// ---------------------------------------------------------------------------
// Journal

Journal::Journal(std::string path, int fd, Options opts)
    : path_(std::move(path)),
      fd_(fd),
      opts_(opts),
      next_seq_(opts.next_seq) {}

std::unique_ptr<Journal> Journal::open(const std::string& path, Options opts,
                                       std::string* error) {
  int flags = O_CREAT | O_WRONLY | O_APPEND;
  if (opts.truncate) flags |= O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open journal '" + path + "': " + std::strerror(errno);
    }
    return nullptr;
  }
  if (opts.fsync_interval_records == 0) opts.fsync_interval_records = 1;
  if (opts.group_max_batch_records == 0) opts.group_max_batch_records = 1;
  auto j = std::unique_ptr<Journal>(new Journal(path, fd, opts));
  // Sealed segments: a truncating open deletes them (fresh log), a
  // re-attaching open continues their numbering.
  const std::vector<std::uint64_t> sealed = list_journal_segments(path);
  if (opts.truncate) {
    for (const std::uint64_t n : sealed) {
      ::unlink(journal_segment_path(path, n).c_str());
    }
  } else if (!sealed.empty()) {
    j->sealed_count_.store(sealed.back(), std::memory_order_relaxed);
  }
  struct stat st{};
  if (::fstat(fd, &st) == 0) {
    j->active_bytes_.store(static_cast<std::uint64_t>(st.st_size),
                           std::memory_order_relaxed);
  }
  // Crash-point knob, process-wide: "<n>" cuts the write path after n more
  // bytes; "flush:<n>" lets n flushes succeed and fails the next.
  if (const char* knob = std::getenv("STEMCP_JOURNAL_CRASH_AFTER")) {
    if (std::strncmp(knob, "flush:", 6) == 0) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(knob + 6, &end, 10);
      if (end != knob + 6) j->set_fail_fsync_after(n);
    } else {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(knob, &end, 10);
      if (end != knob) j->set_fail_after(n);
    }
  }
  if (opts.fsync == FsyncPolicy::kGroupCommit) {
    j->flusher_ = std::thread([raw = j.get()] { raw->flusher_loop(); });
  }
  return j;
}

Journal::~Journal() {
  if (flusher_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(gc_mu_);
      gc_stop_ = true;
    }
    gc_cv_.notify_all();
    flusher_.join();  // flushes (or fails) everything still queued
  }
  if (fd_ >= 0) {
    if (!dead() && opts_.fsync != FsyncPolicy::kNone) {
      // Final flush on the way out; a failure here still dead-latches so
      // the fault is never silently swallowed.
      if (!do_fsync(nullptr)) dead_.store(true, std::memory_order_release);
    }
    ::close(fd_);
  }
}

void Journal::set_fail_after(std::uint64_t bytes) {
  fail_after_.store(bytes, std::memory_order_relaxed);
}

void Journal::set_fail_fsync_after(std::uint64_t n) {
  fail_fsync_after_.store(n, std::memory_order_relaxed);
}

void Journal::set_fail_next_truncate() {
  fail_truncate_.store(true, std::memory_order_relaxed);
}

bool Journal::do_fsync(std::uint64_t* ns_out) {
  const std::uint64_t budget =
      fail_fsync_after_.load(std::memory_order_relaxed);
  if (budget != kNoLimit) {
    if (budget == 0) return false;  // injected device failure
    fail_fsync_after_.store(budget - 1, std::memory_order_relaxed);
  }
  // Always timed (two clock reads are noise next to an fsync): the
  // request-telemetry span reads the duration even when the session's own
  // metrics registry is disabled.
  const std::uint64_t t0 = core::Tracer::now_ns();
  if (::fsync(fd_) != 0) return false;
  if (ns_out != nullptr) *ns_out = core::Tracer::now_ns() - t0;
  fsync_count_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Journal::maybe_roll_segment() {
  if (opts_.segment_bytes == 0) return true;
  if (active_bytes_.load(std::memory_order_relaxed) < opts_.segment_bytes) {
    return true;
  }
  const std::uint64_t n = sealed_count_.load(std::memory_order_relaxed) + 1;
  const std::string sealed = journal_segment_path(path_, n);
  if (::rename(path_.c_str(), sealed.c_str()) != 0) return false;
  if (!sync_parent_dir(path_)) return false;
  const int nfd = ::open(path_.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (nfd < 0) return false;
  ::close(fd_);
  fd_ = nfd;
  sealed_count_.store(n, std::memory_order_relaxed);
  active_bytes_.store(0, std::memory_order_relaxed);
  return true;
}

// The one write path: a writev loop that puts every byte of `iov` (whole
// lines) at the append position.  An injected byte budget cuts the write
// short — leaving exactly the torn tail a crash mid-write leaves, made
// durable like a crash would — and then fails it.
bool Journal::write_lines(struct iovec* iov, std::size_t count) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < count; ++i) total += iov[i].iov_len;
  const std::uint64_t budget = fail_after_.load(std::memory_order_relaxed);
  const std::size_t want =
      budget < total ? static_cast<std::size_t>(budget) : total;
  std::size_t left = want;
  std::size_t n_iov = 0;
  for (; n_iov < count && left > 0; ++n_iov) {
    iov[n_iov].iov_len = std::min(left, iov[n_iov].iov_len);
    left -= iov[n_iov].iov_len;
  }
  for (std::size_t done = 0; done < want;) {
    // One call takes at most IOV_MAX buffers; the rest go round again.
    const ssize_t n = ::writev(
        fd_, iov, static_cast<int>(std::min<std::size_t>(n_iov, IOV_MAX)));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
    // Short write: skip what landed and go again.
    std::size_t landed = static_cast<std::size_t>(n);
    for (; n_iov > 0 && landed >= iov->iov_len; ++iov, --n_iov) {
      landed -= iov->iov_len;
    }
    if (n_iov > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + landed;
      iov->iov_len -= landed;
    }
  }
  bytes_written_.fetch_add(want, std::memory_order_relaxed);
  active_bytes_.fetch_add(want, std::memory_order_relaxed);
  if (budget == kNoLimit) return true;
  fail_after_.store(budget - want, std::memory_order_relaxed);
  if (want == total) return true;
  do_fsync(nullptr);  // the sync cannot un-tear the write; dead either way
  return false;
}

// The classic synchronous append (every-record / interval / none).
bool Journal::append_sync(JournalRecord& record) {
  last_fsync_ns_ = 0;
  if (dead()) {
    append_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  record.seq = next_seq_.load(std::memory_order_relaxed);
  std::string line = encode_record(record);
  struct iovec iov {line.data(), line.size()};
  if (line.empty() || !write_lines(&iov, 1)) {
    if (!line.empty()) dead_.store(true, std::memory_order_release);
    append_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  next_seq_.fetch_add(1, std::memory_order_relaxed);
  records_written_.fetch_add(1, std::memory_order_relaxed);
  ++records_since_sync_;

  core::MetricsRegistry* m = opts_.metrics;
  const bool observe = m != nullptr && m->enabled();
  if (observe) {
    m->add_counter("journal.bytes", line.size());
    m->add_counter("journal.records");
  }
  const bool want_sync =
      opts_.fsync == FsyncPolicy::kEveryRecord ||
      (opts_.fsync == FsyncPolicy::kInterval &&
       records_since_sync_ >= opts_.fsync_interval_records);
  if (want_sync) {
    if (!do_fsync(&last_fsync_ns_)) {
      dead_.store(true, std::memory_order_release);
      append_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    records_since_sync_ = 0;
    if (observe) {
      m->histogram("journal.fsync_ns").record(last_fsync_ns_);
    }
  }
  if (!maybe_roll_segment()) {
    // The record IS durable; only the roll failed.  Latch so the next
    // append reports the fault instead of writing past a failed rename.
    dead_.store(true, std::memory_order_release);
  }
  return true;
}

void Journal::complete(const std::shared_ptr<CommitTicket::State>& st, bool ok,
                       bool fault_here, std::uint64_t fsync_ns) {
  {
    const std::lock_guard<std::mutex> lock(st->mu);
    st->done = true;
    st->ok = ok;
    st->fault_here = fault_here;
    st->fsync_ns = fsync_ns;
  }
  st->cv.notify_all();
}

CommitTicket Journal::append_async(JournalRecord& record) {
  CommitTicket t;
  if (opts_.fsync != FsyncPolicy::kGroupCommit) {
    t.state_ = std::make_shared<CommitTicket::State>();
    const bool ok = append_sync(record);
    t.seq_ = record.seq;
    t.state_->done = true;
    t.state_->ok = ok;
    t.state_->fsync_ns = last_fsync_ns_;
    return t;
  }
  auto state = std::make_shared<CommitTicket::State>();
  t.state_ = state;
  {
    const std::lock_guard<std::mutex> lock(gc_mu_);
    drain_pending_metrics_locked();
    if (dead_.load(std::memory_order_relaxed)) {
      append_failures_.fetch_add(1, std::memory_order_relaxed);
      state->done = true;  // already-failed ticket; fault was reported once
      return t;
    }
    record.seq = next_seq_.load(std::memory_order_relaxed);
    std::string line = encode_record(record);
    if (line.empty()) {  // not one request line: refused, journal unharmed
      append_failures_.fetch_add(1, std::memory_order_relaxed);
      state->done = true;
      return t;
    }
    next_seq_.fetch_add(1, std::memory_order_relaxed);
    t.seq_ = record.seq;
    gc_queue_.push_back(PendingRecord{std::move(line), state});
  }
  gc_cv_.notify_all();
  return t;
}

bool Journal::append(JournalRecord& record) {
  if (opts_.fsync != FsyncPolicy::kGroupCommit) return append_sync(record);
  CommitTicket t = append_async(record);
  return t.wait();
}

void Journal::fail_queue_locked() {
  append_failures_.fetch_add(gc_queue_.size(), std::memory_order_relaxed);
  while (!gc_queue_.empty()) {
    complete(gc_queue_.front().state, /*ok=*/false, /*fault_here=*/false, 0);
    gc_queue_.pop_front();
  }
}

void Journal::drain_pending_metrics_locked() {
  const std::uint64_t bytes = pending_metric_bytes_;
  const std::uint64_t records = pending_metric_records_;
  pending_metric_bytes_ = 0;
  pending_metric_records_ = 0;
  core::MetricsRegistry* m = opts_.metrics;
  if (m == nullptr || !m->enabled()) {
    pending_fsync_samples_.clear();
    return;
  }
  if (bytes > 0) m->add_counter("journal.bytes", bytes);
  if (records > 0) m->add_counter("journal.records", records);
  for (const std::uint64_t ns : pending_fsync_samples_) {
    m->histogram("journal.fsync_ns").record(ns);
  }
  pending_fsync_samples_.clear();
}

bool Journal::flush_batch(std::vector<PendingRecord>& batch,
                          std::uint64_t* fsync_ns, std::uint64_t* bytes_out) {
  // One vectored write for the whole batch, then one fsync.
  std::vector<struct iovec> iov;
  iov.reserve(batch.size());
  std::size_t total = 0;
  for (PendingRecord& p : batch) {
    iov.push_back({p.line.data(), p.line.size()});
    total += p.line.size();
  }
  if (!write_lines(iov.data(), iov.size()) || !do_fsync(fsync_ns)) {
    return false;
  }
  records_written_.fetch_add(batch.size(), std::memory_order_relaxed);
  *bytes_out = total;
  if (!maybe_roll_segment()) {
    // This batch IS durable; only the roll failed.  Latch after reporting
    // success so the tickets complete ok and the NEXT append fails.
    dead_.store(true, std::memory_order_release);
  }
  return true;
}

void Journal::flusher_loop() {
  std::unique_lock<std::mutex> lock(gc_mu_);
  for (;;) {
    gc_cv_.wait(lock, [this] { return gc_stop_ || !gc_queue_.empty(); });
    if (gc_queue_.empty()) {
      gc_flush_now_ = false;
      gc_drained_.notify_all();
      if (gc_stop_) return;
      continue;
    }
    if (dead_.load(std::memory_order_relaxed)) {
      fail_queue_locked();
      gc_drained_.notify_all();
      continue;
    }
    const std::size_t max_batch = opts_.group_max_batch_records;
    if (!gc_stop_ && !gc_flush_now_ && opts_.group_max_delay_us > 0 &&
        gc_queue_.size() < max_batch) {
      // Hold the batch open briefly for stragglers.  In steady state the
      // previous fsync is the real batching window and this wait is moot.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(opts_.group_max_delay_us);
      gc_cv_.wait_until(lock, deadline, [this, max_batch] {
        return gc_stop_ || gc_flush_now_ || gc_queue_.size() >= max_batch;
      });
    }
    std::vector<PendingRecord> batch;
    const std::size_t n = std::min(gc_queue_.size(), max_batch);
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(gc_queue_.front()));
      gc_queue_.pop_front();
    }
    gc_flushing_ = true;
    lock.unlock();

    std::uint64_t fsync_ns = 0;
    std::uint64_t bytes = 0;
    const bool ok = flush_batch(batch, &fsync_ns, &bytes);
    if (!ok) dead_.store(true, std::memory_order_release);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // Exactly-once fault report: the first ticket of the failed batch.
      complete(batch[i].state, ok, /*fault_here=*/!ok && i == 0, fsync_ns);
    }

    lock.lock();
    gc_flushing_ = false;
    if (ok) {
      pending_metric_bytes_ += bytes;
      pending_metric_records_ += batch.size();
      pending_fsync_samples_.push_back(fsync_ns);
    } else {
      append_failures_.fetch_add(batch.size(), std::memory_order_relaxed);
      fail_queue_locked();
    }
    if (gc_queue_.empty()) gc_flush_now_ = false;
    gc_drained_.notify_all();
  }
}

bool Journal::sync() {
  if (opts_.fsync == FsyncPolicy::kGroupCommit) {
    std::unique_lock<std::mutex> lock(gc_mu_);
    // Quiesce: every queued record must be flushed (each group flush
    // already fsyncs) before we can claim durability.
    gc_flush_now_ = true;
    gc_cv_.notify_all();
    gc_drained_.wait(lock, [this] {
      return (gc_queue_.empty() && !gc_flushing_) ||
             dead_.load(std::memory_order_relaxed);
    });
    drain_pending_metrics_locked();
    return !dead_.load(std::memory_order_relaxed);
  }
  if (dead()) return false;
  if (!do_fsync(nullptr)) {
    dead_.store(true, std::memory_order_release);
    return false;
  }
  records_since_sync_ = 0;
  return true;
}

bool Journal::truncate_all(std::uint64_t seq) {
  if (opts_.fsync == FsyncPolicy::kGroupCommit) {
    // Quiesce first: a queued record must never land after the cut (its
    // waiter gets durability from the flush that precedes the truncate,
    // and its state lives in the checkpoint that motivated the call).
    std::unique_lock<std::mutex> lock(gc_mu_);
    gc_flush_now_ = true;
    gc_cv_.notify_all();
    gc_drained_.wait(lock, [this] {
      return (gc_queue_.empty() && !gc_flushing_) ||
             dead_.load(std::memory_order_relaxed);
    });
    drain_pending_metrics_locked();
    if (dead_.load(std::memory_order_relaxed)) return false;
    // Flusher is idle and the queue is empty; we own the fd while holding
    // gc_mu_ (append_async also takes it, so no record can slip in).
    if (fail_truncate_.exchange(false, std::memory_order_relaxed) ||
        ::ftruncate(fd_, 0) != 0 || !do_fsync(nullptr)) {
      dead_.store(true, std::memory_order_release);
      return false;
    }
    for (const std::uint64_t n : list_journal_segments(path_)) {
      ::unlink(journal_segment_path(path_, n).c_str());
    }
    sealed_count_.store(0, std::memory_order_relaxed);
    active_bytes_.store(0, std::memory_order_relaxed);
    next_seq_.store(seq + 1, std::memory_order_relaxed);
    return true;
  }
  if (dead()) return false;
  if (fail_truncate_.exchange(false, std::memory_order_relaxed) ||
      ::ftruncate(fd_, 0) != 0 || !do_fsync(nullptr)) {
    dead_.store(true, std::memory_order_release);
    return false;
  }
  for (const std::uint64_t n : list_journal_segments(path_)) {
    ::unlink(journal_segment_path(path_, n).c_str());
  }
  sealed_count_.store(0, std::memory_order_relaxed);
  active_bytes_.store(0, std::memory_order_relaxed);
  next_seq_.store(seq + 1, std::memory_order_relaxed);
  records_since_sync_ = 0;
  return true;
}

// ---------------------------------------------------------------------------
// Scanning

JournalScan scan_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return JournalScan{};  // absent file == empty journal
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return scan_journal_text(contents);
}

JournalScan scan_journal_text(std::string_view contents) {
  JournalScan scan;
  const FramedScan framed = scan_framed(
      contents, kTag, "journal",
      [&scan](std::string_view body, std::string* error) {
        JournalRecord rec;
        if (!decode_body(body, &rec, error)) return false;
        scan.records.push_back(std::move(rec));
        return true;
      });
  scan.valid_bytes = framed.valid_bytes;
  scan.torn_tail = framed.torn_tail;
  scan.error = framed.error;
  return scan;
}

std::string journal_segment_path(const std::string& path, std::uint64_t n) {
  return path + "." + std::to_string(n);
}

std::vector<std::uint64_t> list_journal_segments(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const std::string base =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".";
  std::vector<std::uint64_t> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() <= base.size() || name.compare(0, base.size(), base) != 0) {
      continue;
    }
    const std::string suffix = name.substr(base.size());
    if (suffix.find_first_not_of("0123456789") != std::string::npos) continue;
    out.push_back(std::strtoull(suffix.c_str(), nullptr, 10));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

JournalScan scan_journal_segments(const std::string& path,
                                  unsigned parallelism) {
  const std::vector<std::uint64_t> segs = list_journal_segments(path);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (segs[i] != i + 1) {
      JournalScan bad;
      bad.error = "journal segment numbering gap: missing '" +
                  journal_segment_path(path, i + 1) + "'";
      return bad;
    }
  }
  // Scan sealed segments in parallel — they are immutable and independent;
  // order is restored at merge time.
  std::vector<JournalScan> sealed(segs.size());
  if (!segs.empty()) {
    unsigned lanes = parallelism == 0
                         ? static_cast<unsigned>(
                               std::min<std::size_t>(segs.size(), 8))
                         : parallelism;
    if (lanes == 0) lanes = 1;
    std::vector<std::thread> workers;
    std::atomic<std::size_t> next{0};
    workers.reserve(lanes);
    for (unsigned t = 0; t < lanes; ++t) {
      workers.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= sealed.size()) return;
          sealed[i] = scan_journal(journal_segment_path(path, segs[i]));
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  // Merge in order, the active file last: only it may tear (a sealed segment
  // was fsynced whole before its rename), and seqs must climb throughout.
  sealed.push_back(scan_journal(path));
  JournalScan merged;
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    JournalScan& s = sealed[i];
    const bool active = i == segs.size();
    const std::string name =
        active ? "active journal '" + path + "'"
               : "sealed segment '" + journal_segment_path(path, segs[i]) + "'";
    if (!s.ok()) {
      merged.error = name + ": " + s.error;
      return merged;
    }
    if (s.torn_tail && !active) {
      merged.error = name + " has a torn tail";
      return merged;
    }
    for (JournalRecord& r : s.records) {
      if (!merged.records.empty() && r.seq <= merged.records.back().seq) {
        merged.error = name + ": seq " + std::to_string(r.seq) +
                       " does not continue " +
                       std::to_string(merged.records.back().seq);
        return merged;
      }
      merged.records.push_back(std::move(r));
    }
  }
  merged.valid_bytes = sealed.back().valid_bytes;
  merged.torn_tail = sealed.back().torn_tail;
  return merged;
}

bool truncate_journal(const std::string& path, std::uint64_t valid_bytes) {
  return ::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) == 0;
}

}  // namespace stemcp::persist
