// Durability layer, part 1: the operation journal (ROADMAP: production
// scale; cf. the append-only / explicit-sync-policy / torn-tail-handling
// idioms of log-structured I/O engines).
//
// The paper's propagation semantics make every mutating service request
// deterministic and replayable — justification records say *why* a value
// holds, the one-value-change rule makes a wave's effect a pure function of
// its inputs, and restore-on-violation means a violating request leaves no
// residue.  A journal of the requests is therefore a complete redo log: to
// rebuild a session, replay the requests through the real engine and every
// derived value, violation and restore re-derives identically.
//
// File format: one framed line per record (persist/framed.h),
//
//   J2 <crc32-hex8> <seq> <ok|violation> <applied> <restored> <request-line>
//
// <request-line> is the executed request as ServiceFrontEnd::render wrote
// it, so a journal is a replayable request log: recovery parses every line
// with ServiceFrontEnd::parse and runs it through the same dispatch as live
// traffic.  The seq and the recorded outcome let replay verify that the
// engine re-derives what the original execution observed.  The rendered
// `open`/`close` requests mark attach and clean shutdown.
//
// Commit path: every record reaches the file through one commit routine —
// one vectored write, the fsync the policy asks for, the segment roll, then
// the CommitTickets.  kEveryRecord fsyncs every commit, kInterval every N
// records, kNone never (the OS page cache decides).  Under those three the
// appender runs the commit inline, so a record is durable (per policy) when
// append_async returns.  kGroupCommit hands records to a dedicated flusher
// thread that runs the same commit off-lock over everything queued —
// across sessions — with one fsync: N concurrent mutating requests pay one
// device flush instead of N, and a record is durable when its ticket
// completes, NOT when append_async returns.
//
// Counting: records_written() counts committed records (written, and
// fsynced when the policy asked); a commit whose write or fsync fails
// counts none of its records, and the first ticket of the commit during
// which the journal died is the one faulted() ticket.  These atomics and a
// histogram of commit fsync times are the journal's only counters;
// add_metrics_to() renders them as journal.* metrics.
//
// Segmentation: with Options::segment_bytes > 0 the journal rolls the
// active file `<base>.journal` into sealed segments `<base>.journal.<n>`
// (n = 1, 2, ... contiguous) once the active file crosses the threshold
// after a flush.  Sealed segments are immutable; the torn-final-record
// tolerance applies only to the active file — a torn or corrupt sealed
// segment is fatal.  Checkpoint truncation deletes every sealed segment
// and empties the active file.
//
// Fault injection for crash tests: set_fail_after(n) makes the journal
// write at most n more bytes — a partial final write — then go dead;
// set_fail_fsync_after(n) lets n more fsyncs succeed and fails the next
// (covering the commit, sync, truncate and destructor sites);
// set_fail_next_truncate() fails the next ftruncate.  The
// STEMCP_JOURNAL_CRASH_AFTER environment knob applies the same limits to
// every journal opened afterwards: a decimal byte count cuts the write
// path, "flush:<n>" kills the journal on its (n+1)th flush — so a shell
// script can demo group-commit crash recovery without recompiling.
#pragma once

#include <sys/uio.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/trace.h"
#include "persist/framed.h"

namespace stemcp::persist {

enum class FsyncPolicy : std::uint8_t {
  kEveryRecord,  ///< fsync after every append (full durability)
  kInterval,     ///< fsync every Options::fsync_interval_records appends
  kNone,         ///< never fsync explicitly (OS page cache decides)
  kGroupCommit,  ///< batch queued records into one writev+fsync per flush
};

const char* to_string(FsyncPolicy p);
/// Parse "every-record" / "interval" / "none" / "group-commit"; false on
/// unknown text.
bool fsync_policy_from(const std::string& s, FsyncPolicy* out);

/// One journaled request: its rendered protocol line and how it came out.
struct JournalRecord {
  std::uint64_t seq = 0;
  std::string line;  ///< ServiceFrontEnd::render text, no trailing newline

  // Outcome, for replay verification (a replayed record must re-derive the
  // same violation/restore behaviour).
  bool violation = false;
  std::uint64_t applied = 0;
  std::uint64_t restored = 0;

  bool operator==(const JournalRecord&) const = default;
};

/// Serialize one record as its J2 line (newline included); empty when the
/// record's line is empty or holds a newline.
std::string encode_record(const JournalRecord& r);
/// Parse one J2 line (without the trailing newline).  Returns false with
/// `error` set on a framing, checksum or field error.
bool decode_record(std::string_view line, JournalRecord* out,
                   std::string* error);

/// Handle on one appended record.  Seq-stamped at append time; wait()
/// blocks until the commit covering the record completes and returns the
/// durability verdict.  Every policy but group commit commits inline, so
/// its ticket is already complete when append_async returns.
class CommitTicket {
 public:
  CommitTicket() = default;  ///< invalid ticket: wait() fails immediately

  bool valid() const { return state_ != nullptr; }
  std::uint64_t seq() const { return seq_; }
  /// True while the covering commit is still ahead (group commit only).
  bool pending() const;

  /// Block until the covering commit completes; true iff the record is
  /// durable.  Idempotent.
  bool wait();

  // The following report on the completed commit — call only after wait().
  /// Nanoseconds the covering commit spent inside fsync (shared by every
  /// ticket of the batch; 0 when the policy asked for no fsync).
  std::uint64_t fsync_ns() const { return state_ ? state_->fsync_ns : 0; }
  /// Nanoseconds THIS wait() call actually blocked (0 when the commit had
  /// already completed — always, for an inline commit).
  std::uint64_t wait_ns() const { return wait_ns_; }
  /// True on exactly one ticket per journal death: the first ticket of the
  /// commit during which the journal died (its record is still durable when
  /// only the segment roll after it failed).  The service layer uses it to
  /// report the dead-journal degradation exactly once.
  bool faulted() const { return state_ != nullptr && state_->fault_here; }

 private:
  friend class Journal;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    bool fault_here = false;
    std::uint64_t fsync_ns = 0;
  };
  std::shared_ptr<State> state_;
  std::uint64_t seq_ = 0;
  std::uint64_t wait_ns_ = 0;
};

/// Append-only journal writer over one file descriptor (plus its sealed
/// segment files when segmentation is on).
class Journal {
 public:
  struct Options {
    FsyncPolicy fsync = FsyncPolicy::kEveryRecord;
    std::uint32_t fsync_interval_records = 32;  ///< kInterval cadence
    /// kGroupCommit knobs: a flush takes at most this many records, and the
    /// flusher waits at most this long for stragglers once a record is
    /// queued (the fsync itself is usually the effective batching window).
    std::uint32_t group_max_batch_records = 64;
    std::uint32_t group_max_delay_us = 200;
    /// Roll the active file into a sealed `<path>.<n>` segment once it
    /// crosses this many bytes (0 = never roll; single-file journal).
    std::uint64_t segment_bytes = 0;
    bool truncate = false;  ///< start a fresh log (attach/checkpoint path)
    std::uint64_t next_seq = 1;
  };

  /// Open (creating if needed) `path` for appending; discovers existing
  /// sealed segments and continues their numbering (truncate deletes them).
  /// Returns nullptr with `error` set when the file cannot be opened.
  /// Honors the STEMCP_JOURNAL_CRASH_AFTER environment knob (decimal byte
  /// count, or "flush:<n>" to fail the (n+1)th flush).
  static std::unique_ptr<Journal> open(const std::string& path, Options opts,
                                       std::string* error);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// append_async(record).wait(): blocks until the record is committed.
  /// Returns false once the journal is dead (fault injection or a write
  /// error) — the in-memory session keeps working, the log just stops
  /// growing, exactly like a crashed disk.
  bool append(JournalRecord& record);

  /// Stamp the record's seq (the next sequence number), encode it, and
  /// commit it: inline under every policy but group commit, so the ticket
  /// is complete on return, and through the flusher under group commit,
  /// whose ticket completes with the covering flush.  A dead journal, or a
  /// line the log cannot frame, returns an already-failed ticket.
  /// Thread-safe.
  CommitTicket append_async(JournalRecord& record);

  /// Flush everything appended so far to stable storage: quiesces the
  /// group-commit queue, then fsyncs whatever the commits left unsynced.
  /// Returns false on failure or when the journal is dead.
  bool sync();

  /// Truncate the log to empty — deleting every sealed segment — and
  /// restart sequence numbering after `seq` (the checkpoint path: state up
  /// to `seq` now lives in the checkpoint).  Quiesces the group-commit
  /// queue first, so no queued record can land after the cut.
  bool truncate_all(std::uint64_t seq);

  /// Fault injection: write at most `bytes` more bytes — the final write is
  /// cut short mid-record — then refuse all further writes.
  void set_fail_after(std::uint64_t bytes);
  /// Fault injection: let `n` more fsyncs succeed, then fail the next one
  /// (whichever site issues it: commit, sync, truncate_all, destructor).
  void set_fail_fsync_after(std::uint64_t n);
  /// Fault injection: fail the next ftruncate (truncate_all site).
  void set_fail_next_truncate();

  bool dead() const { return dead_.load(std::memory_order_acquire); }
  const std::string& path() const { return path_; }
  /// The options the journal was opened with (zero cadences raised to 1).
  const Options& options() const { return opts_; }
  /// Nanoseconds the most recent commit spent inside fsync (0 when the
  /// policy asked for none).  A request's own split comes from its ticket's
  /// fsync_ns().
  std::uint64_t last_fsync_ns() const {
    return last_fsync_ns_.load(std::memory_order_relaxed);
  }
  /// Bytes that reached the file, a torn final write included.
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  /// Records committed: written, and fsynced when the policy asked.
  std::uint64_t records_written() const {
    return records_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t next_seq() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  /// Tickets that completed without durability.
  std::uint64_t append_failures() const {
    return append_failures_.load(std::memory_order_relaxed);
  }
  /// Total fsyncs issued (all sites).  records_written() / fsyncs() is the
  /// group-commit batching factor.
  std::uint64_t fsyncs() const {
    return fsync_count_.load(std::memory_order_relaxed);
  }
  /// Number of sealed `<path>.<n>` segments currently on disk.
  std::uint64_t sealed_segments() const {
    return sealed_count_.load(std::memory_order_relaxed);
  }
  /// Add the journal's counters to `m`: journal.bytes (bytes_written()),
  /// journal.records (records_written()) and, once a commit has fsynced,
  /// the journal.fsync_ns histogram of commit fsync times.
  void add_metrics_to(core::MetricsRegistry& m) const;

 private:
  struct PendingRecord {
    std::string line;
    std::shared_ptr<CommitTicket::State> state;
  };

  Journal(std::string path, int fd, Options opts);

  void flusher_loop();
  void commit(std::span<PendingRecord> batch);  ///< the one commit routine
  bool write_lines(struct iovec* iov, std::size_t count);
  bool do_fsync(std::uint64_t* ns_out);
  bool maybe_roll_segment();
  std::unique_lock<std::mutex> quiesce();
  void complete(CommitTicket::State& st, bool ok, bool fault_here,
                std::uint64_t fsync_ns);

  std::string path_;
  // The write side, touched by one commit at a time: an inline commit holds
  // mu_, the flusher commits while flushing_ is set, and sync() /
  // truncate_all() hold mu_ after quiesce().
  int fd_ = -1;                    ///< active segment
  std::uint64_t unsynced_ = 0;     ///< records written since the last fsync
  std::vector<struct iovec> iov_;  ///< the commit's write vector, reused
  Options opts_;

  std::atomic<bool> dead_{false};
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> records_written_{0};
  std::atomic<std::uint64_t> append_failures_{0};
  std::atomic<std::uint64_t> fsync_count_{0};
  std::atomic<std::uint64_t> active_bytes_{0};
  std::atomic<std::uint64_t> sealed_count_{0};
  std::atomic<std::uint64_t> last_fsync_ns_{0};
  core::ConcurrentHistogram commit_fsync_ns_;

  // Fault injection (atomics: armed by test threads, read by the commit).
  std::atomic<std::uint64_t> fail_after_{~0ull};        ///< byte budget
  std::atomic<std::uint64_t> fail_fsync_after_{~0ull};  ///< fsync budget
  std::atomic<bool> fail_truncate_{false};

  // Appends and the group-commit queue (guarded by mu_).
  std::mutex mu_;
  std::condition_variable cv_;       ///< flusher wakeups
  std::condition_variable drained_;  ///< quiesce() waits here
  std::deque<PendingRecord> queue_;
  bool stop_ = false;
  bool flush_now_ = false;  ///< cut the delay window (quiesce)
  bool flushing_ = false;   ///< the flusher is out committing a batch
  std::string spare_line_;  ///< the last inline commit's line, reused
  std::thread flusher_;     ///< started by open() under kGroupCommit only
};

/// Parse the journal-options grammar
///
///   [every-record|interval [n]|none|group-commit] [batch n] [delay-us n]
///   [segment n]
///
/// into the sync and segment fields of `*out` (the other fields keep their
/// values).  False with `*error` set on an unknown policy or option word or
/// a missing number.
bool journal_options_from(const std::string& text, Journal::Options* out,
                          std::string* error);
/// Render those fields back into the grammar: the policy, then the knobs
/// that apply to it ("group-commit batch 8 delay-us 100 segment 4096").
std::string to_string(const Journal::Options& o);

/// Result of scanning a journal file (or a whole segmented journal) front
/// to back.
struct JournalScan {
  std::vector<JournalRecord> records;
  std::uint64_t valid_bytes = 0;  ///< end offset of the last valid record
                                  ///< IN THE ACTIVE FILE (segment scans)
  bool torn_tail = false;  ///< trailing partial/corrupt record was dropped
  std::string error;  ///< non-empty: corruption BEFORE the tail (fatal)

  bool ok() const { return error.empty(); }
};

/// Read every valid record of `path` (a missing file scans as empty) under
/// the framed-line rules: a torn final record is dropped, corruption before
/// it is reported through `error` with its byte offset.
JournalScan scan_journal(const std::string& path);
/// The same over contents already in memory.
JournalScan scan_journal_text(std::string_view contents);

/// Sealed-segment path: `<path>.<n>` (n >= 1).
std::string journal_segment_path(const std::string& path, std::uint64_t n);

/// Sealed segment numbers present on disk for `path`, sorted ascending
/// (found by directory listing, so gaps from manual tampering are visible).
std::vector<std::uint64_t> list_journal_segments(const std::string& path);

/// Scan a segmented journal: every sealed `<path>.<n>` in order, then the
/// active file.  Sealed segments are scanned in parallel (`parallelism`
/// threads; 0 = one per segment, capped).  Sealed segments must be whole —
/// a torn or corrupt sealed segment, a numbering gap, or a seq that does
/// not continue the previous segment's is fatal.  torn_tail/valid_bytes
/// describe the ACTIVE file only, so recovery can cut its torn tail.
JournalScan scan_journal_segments(const std::string& path,
                                  unsigned parallelism = 0);

/// Cut the file back to `valid_bytes` — recovery calls this before
/// re-attaching so new records never follow torn bytes.
bool truncate_journal(const std::string& path, std::uint64_t valid_bytes);

}  // namespace stemcp::persist
