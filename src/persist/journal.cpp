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

/// Frame `r` as its J2 line into `*out` (cleared first); false, leaving it
/// empty, when the request line is empty or holds a newline.
bool frame_record(const JournalRecord& r, std::string* out) {
  char fields[96];
  const int n = std::snprintf(
      fields, sizeof fields, "%llu %s %llu %llu",
      static_cast<unsigned long long>(r.seq), r.violation ? "violation" : "ok",
      static_cast<unsigned long long>(r.applied),
      static_cast<unsigned long long>(r.restored));
  out->clear();
  return append_framed(
      kTag, std::string_view(fields, static_cast<std::size_t>(n)), r.line,
      out);
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
  std::string out;
  frame_record(r, &out);
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

bool CommitTicket::pending() const {
  if (state_ == nullptr) return false;
  const std::lock_guard<std::mutex> lock(state_->mu);
  return !state_->done;
}

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
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    flusher_.join();  // commits (or fails) everything still queued
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

void Journal::add_metrics_to(core::MetricsRegistry& m) const {
  m.add_counter("journal.bytes", bytes_written());
  m.add_counter("journal.records", records_written());
  const core::Histogram fsync_ns = commit_fsync_ns_.snapshot();
  if (fsync_ns.count() > 0) m.histogram("journal.fsync_ns").merge(fsync_ns);
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

// The one commit routine, for every policy: one vectored write of the
// batch, the fsync the policy asks for, the segment roll, then the
// tickets.  The flusher runs it off-lock under group commit; every other
// policy runs it inline in append_async, under mu_.
void Journal::commit(std::span<PendingRecord> batch) {
  iov_.clear();
  for (PendingRecord& p : batch) {
    iov_.push_back({p.line.data(), p.line.size()});
  }
  unsynced_ += batch.size();
  const bool want_fsync =
      opts_.fsync == FsyncPolicy::kEveryRecord ||
      opts_.fsync == FsyncPolicy::kGroupCommit ||
      (opts_.fsync == FsyncPolicy::kInterval &&
       unsynced_ >= opts_.fsync_interval_records);
  std::uint64_t fsync_ns = 0;
  bool ok = write_lines(iov_.data(), iov_.size());
  if (ok && want_fsync) {
    ok = do_fsync(&fsync_ns);
    if (ok) {
      unsynced_ = 0;
      commit_fsync_ns_.record(fsync_ns);
    }
  }
  if (ok) records_written_.fetch_add(batch.size(), std::memory_order_relaxed);
  // A failed roll leaves the batch durable: its tickets complete ok, and the
  // latch makes the next append fail instead of writing past the rename.
  if (!ok || !maybe_roll_segment()) {
    dead_.store(true, std::memory_order_release);
  }
  last_fsync_ns_.store(fsync_ns, std::memory_order_relaxed);
  // A commit runs only on a live journal, so a dead one died in this commit.
  const bool died = dead();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    complete(*batch[i].state, ok, /*fault_here=*/died && i == 0, fsync_ns);
  }
}

void Journal::complete(CommitTicket::State& st, bool ok, bool fault_here,
                       std::uint64_t fsync_ns) {
  if (!ok) append_failures_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(st.mu);
    st.done = true;
    st.ok = ok;
    st.fault_here = fault_here;
    st.fsync_ns = fsync_ns;
  }
  st.cv.notify_all();
}

CommitTicket Journal::append_async(JournalRecord& record) {
  CommitTicket t;
  t.state_ = std::make_shared<CommitTicket::State>();
  std::unique_lock<std::mutex> lock(mu_);
  // Reusing the last inline commit's line buffer keeps a one-record commit
  // free of heap allocations beyond its ticket.
  PendingRecord p{std::move(spare_line_), t.state_};
  record.seq = next_seq_.load(std::memory_order_relaxed);
  if (dead() || !frame_record(record, &p.line)) {
    // Dead: the fault was reported once already.  Unframeable (not one
    // request line): refused, journal unharmed.
    complete(*t.state_, /*ok=*/false, /*fault_here=*/false, 0);
    return t;
  }
  next_seq_.fetch_add(1, std::memory_order_relaxed);
  t.seq_ = record.seq;
  if (flusher_.joinable()) {
    queue_.push_back(std::move(p));
    lock.unlock();
    cv_.notify_all();
  } else {
    commit({&p, 1});
    spare_line_ = std::move(p.line);
  }
  return t;
}

bool Journal::append(JournalRecord& record) {
  return append_async(record).wait();
}

void Journal::flusher_loop() {
  std::vector<PendingRecord> batch;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and everything is committed
    if (dead()) {
      for (PendingRecord& p : queue_) complete(*p.state, false, false, 0);
      queue_.clear();
      drained_.notify_all();
      continue;
    }
    const std::size_t max_batch = opts_.group_max_batch_records;
    if (!stop_ && !flush_now_ && opts_.group_max_delay_us > 0 &&
        queue_.size() < max_batch) {
      // Hold the batch open briefly for stragglers.  In steady state the
      // previous fsync is the real batching window and this wait is moot.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(opts_.group_max_delay_us);
      cv_.wait_until(lock, deadline, [this, max_batch] {
        return stop_ || flush_now_ || queue_.size() >= max_batch;
      });
    }
    const auto end = queue_.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(queue_.size(), max_batch));
    batch.assign(std::make_move_iterator(queue_.begin()),
                 std::make_move_iterator(end));
    queue_.erase(queue_.begin(), end);
    flushing_ = true;
    lock.unlock();
    commit(batch);
    batch.clear();
    lock.lock();
    flushing_ = false;
    if (queue_.empty()) flush_now_ = false;
    drained_.notify_all();
  }
}

// Under mu_, wait until no record is queued or being committed (or the
// journal is dead), cutting the flusher's delay window.  Every policy but
// group commit commits under mu_, so for them this only takes the lock.
std::unique_lock<std::mutex> Journal::quiesce() {
  std::unique_lock<std::mutex> lock(mu_);
  flush_now_ = true;
  cv_.notify_all();
  drained_.wait(lock, [this] {
    return (queue_.empty() && !flushing_) || dead();
  });
  return lock;
}

bool Journal::sync() {
  const std::unique_lock<std::mutex> lock = quiesce();
  if (dead()) return false;
  if (unsynced_ == 0) return true;  // every commit since the last fsync synced
  if (!do_fsync(nullptr)) {
    dead_.store(true, std::memory_order_release);
    return false;
  }
  unsynced_ = 0;
  return true;
}

bool Journal::truncate_all(std::uint64_t seq) {
  // Quiesce first, and keep holding mu_: no record can land after the cut
  // (a queued record's waiter gets durability from the commit before it,
  // and its state lives in the checkpoint that motivated the call).
  const std::unique_lock<std::mutex> lock = quiesce();
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
  unsynced_ = 0;
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
