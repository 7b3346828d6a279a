// Group-commit journal tests: ticket semantics, batch coalescing (many
// appends per fsync), queue quiesce, dead-journal ticket failure, the
// flush-count crash knob, and one fault-injection test per fsync/ftruncate
// call site (append, group flush, sync, truncate, destructor).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "persist/journal.h"

namespace stemcp::persist {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "stemcp_group_commit_test_" + name;
}

JournalRecord record_for(const std::string& session, int i) {
  JournalRecord r;
  r.line = "assign " + session + " X.delay " + std::to_string(i) + "e-09";
  r.applied = 1;
  return r;
}

Journal::Options group_options(std::uint32_t batch = 64,
                               std::uint32_t delay_us = 200) {
  Journal::Options o;
  o.fsync = FsyncPolicy::kGroupCommit;
  o.group_max_batch_records = batch;
  o.group_max_delay_us = delay_us;
  o.truncate = true;
  return o;
}

TEST(GroupCommitTest, TicketCompletesWithDurableRecord) {
  const std::string path = tmp_path("ticket");
  std::string error;
  auto j = Journal::open(path, group_options(), &error);
  ASSERT_NE(j, nullptr) << error;
  JournalRecord r = record_for("a", 1);
  CommitTicket t = j->append_async(r);
  ASSERT_TRUE(t.valid());
  EXPECT_EQ(t.seq(), 1u);
  EXPECT_TRUE(t.wait());
  EXPECT_GE(j->fsyncs(), 1u);
  const JournalScan scan = scan_journal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 1u);
  std::remove(path.c_str());
}

TEST(GroupCommitTest, InvalidTicketFailsImmediately) {
  CommitTicket t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.wait());
  EXPECT_FALSE(t.faulted());
}

TEST(GroupCommitTest, ManyConcurrentAppendsShareFewFsyncs) {
  const std::string path = tmp_path("batch");
  std::string error;
  // Generous delay so stragglers from all threads coalesce.
  auto j = Journal::open(path, group_options(64, 2000), &error);
  ASSERT_NE(j, nullptr) << error;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        JournalRecord r = record_for("s" + std::to_string(t), i);
        CommitTicket ticket = j->append_async(r);
        if (ticket.wait()) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  EXPECT_EQ(j->records_written(), static_cast<std::uint64_t>(kThreads * kPerThread));
  // The point of group commit: flushes must be shared.  With 4 writers the
  // batching factor is at least ~2x even on a fast disk.
  EXPECT_LT(j->fsyncs(), j->records_written());
  const JournalScan scan = scan_journal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.records.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(scan.records[i].seq, i + 1) << "seq order must be exact";
  }
  std::remove(path.c_str());
}

// One flush of more lines than a single writev takes (IOV_MAX, 1024 on
// Linux) still writes the whole batch, in order, under one fsync.
TEST(GroupCommitTest, BatchBeyondIovMaxIsWrittenWhole) {
  const std::string path = tmp_path("iov_max");
  std::string error;
  // A 10 s window: nothing flushes until sync() cuts it.
  auto j = Journal::open(path, group_options(4096, 10000000), &error);
  ASSERT_NE(j, nullptr) << error;
  constexpr int kRecords = 3000;
  std::vector<CommitTicket> tickets;
  for (int i = 0; i < kRecords; ++i) {
    JournalRecord r = record_for("a", i);
    tickets.push_back(j->append_async(r));
  }
  ASSERT_TRUE(j->sync());
  for (CommitTicket& t : tickets) ASSERT_TRUE(t.wait());
  EXPECT_EQ(j->fsyncs(), 1u);
  const JournalScan scan = scan_journal(path);
  ASSERT_TRUE(scan.ok()) << scan.error;
  ASSERT_EQ(scan.records.size(), static_cast<std::size_t>(kRecords));
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    ASSERT_EQ(scan.records[i].seq, i + 1);
  }
  std::remove(path.c_str());
}

TEST(GroupCommitTest, BlockingAppendWrapperWaitsForFlush) {
  const std::string path = tmp_path("wrapper");
  std::string error;
  auto j = Journal::open(path, group_options(), &error);
  ASSERT_NE(j, nullptr) << error;
  JournalRecord r = record_for("a", 1);
  ASSERT_TRUE(j->append(r));
  // Durable at return: the record is on disk already.
  const JournalScan scan = scan_journal(path);
  ASSERT_EQ(scan.records.size(), 1u);
  std::remove(path.c_str());
}

TEST(GroupCommitTest, SyncQuiescesTheQueue) {
  const std::string path = tmp_path("quiesce");
  std::string error;
  auto j = Journal::open(path, group_options(64, 5000), &error);
  ASSERT_NE(j, nullptr) << error;
  std::vector<CommitTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    JournalRecord r = record_for("a", i);
    tickets.push_back(j->append_async(r));
  }
  ASSERT_TRUE(j->sync());  // must cut the delay window and drain everything
  for (CommitTicket& t : tickets) EXPECT_TRUE(t.wait());
  EXPECT_EQ(scan_journal(path).records.size(), 8u);
  std::remove(path.c_str());
}

TEST(GroupCommitTest, DeadJournalFailsAllQueuedTicketsExactlyOnce) {
  const std::string path = tmp_path("dead");
  std::string error;
  auto j = Journal::open(path, group_options(2, 50), &error);
  ASSERT_NE(j, nullptr) << error;
  // The first flushed batch is cut mid-write; everything queued behind it
  // must fail too, with the fault marker on exactly one ticket.
  j->set_fail_after(4);
  std::vector<CommitTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    JournalRecord r = record_for("a", i);
    tickets.push_back(j->append_async(r));
  }
  int failures = 0;
  int faults = 0;
  for (CommitTicket& t : tickets) {
    if (!t.wait()) ++failures;
    if (t.faulted()) ++faults;
  }
  EXPECT_EQ(failures, 6);
  EXPECT_EQ(faults, 1) << "journal death must be reported exactly once";
  EXPECT_TRUE(j->dead());
  EXPECT_EQ(j->append_failures(), 6u);
  // Appends against the dead journal fail immediately, without new faults.
  JournalRecord late = record_for("a", 99);
  CommitTicket t = j->append_async(late);
  EXPECT_FALSE(t.wait());
  EXPECT_FALSE(t.faulted());
  std::remove(path.c_str());
}

TEST(GroupCommitTest, GroupFlushFsyncFailureFailsBatch) {
  const std::string path = tmp_path("flushfault");
  std::string error;
  auto j = Journal::open(path, group_options(), &error);
  ASSERT_NE(j, nullptr) << error;
  j->set_fail_fsync_after(0);
  JournalRecord r = record_for("a", 1);
  CommitTicket t = j->append_async(r);
  EXPECT_FALSE(t.wait());
  EXPECT_TRUE(t.faulted());
  EXPECT_TRUE(j->dead());
  std::remove(path.c_str());
}

TEST(GroupCommitTest, CrashAfterFlushCountEnvKnob) {
  const std::string path = tmp_path("flushknob");
  ::setenv("STEMCP_JOURNAL_CRASH_AFTER", "flush:2", 1);
  std::string error;
  Journal::Options opts;  // every-record: one flush per append
  opts.truncate = true;
  auto j = Journal::open(path, opts, &error);
  ::unsetenv("STEMCP_JOURNAL_CRASH_AFTER");
  ASSERT_NE(j, nullptr) << error;
  JournalRecord r1 = record_for("a", 1);
  JournalRecord r2 = record_for("a", 2);
  JournalRecord r3 = record_for("a", 3);
  EXPECT_TRUE(j->append(r1));
  EXPECT_TRUE(j->append(r2));
  EXPECT_FALSE(j->append(r3)) << "third flush must fail (flush:2)";
  EXPECT_TRUE(j->dead());
  // The two durable records survive; the third was written but not synced —
  // in-process it is still visible, so only count the first two as promised.
  const JournalScan scan = scan_journal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_GE(scan.records.size(), 2u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Per-site fsync/ftruncate fault injection (satellite: every sync failure
// dead-latches or surfaces an error — no bare ::fsync anywhere).

TEST(GroupCommitTest, AppendSiteFsyncFailureDeadLatches) {
  const std::string path = tmp_path("site_append");
  std::string error;
  Journal::Options opts;  // every-record
  opts.truncate = true;
  auto j = Journal::open(path, opts, &error);
  ASSERT_NE(j, nullptr) << error;
  j->set_fail_fsync_after(0);
  JournalRecord r = record_for("a", 1);
  EXPECT_FALSE(j->append(r));
  EXPECT_TRUE(j->dead());
  EXPECT_EQ(j->append_failures(), 1u);
  std::remove(path.c_str());
}

TEST(GroupCommitTest, SyncSiteFsyncFailureDeadLatches) {
  const std::string path = tmp_path("site_sync");
  std::string error;
  Journal::Options opts;
  opts.fsync = FsyncPolicy::kNone;
  opts.truncate = true;
  auto j = Journal::open(path, opts, &error);
  ASSERT_NE(j, nullptr) << error;
  JournalRecord r = record_for("a", 1);
  ASSERT_TRUE(j->append(r));
  j->set_fail_fsync_after(0);
  EXPECT_FALSE(j->sync());
  EXPECT_TRUE(j->dead());
  std::remove(path.c_str());
}

TEST(GroupCommitTest, TruncateSiteFtruncateFailureDeadLatches) {
  const std::string path = tmp_path("site_trunc");
  std::string error;
  Journal::Options opts;
  opts.truncate = true;
  auto j = Journal::open(path, opts, &error);
  ASSERT_NE(j, nullptr) << error;
  JournalRecord r = record_for("a", 1);
  ASSERT_TRUE(j->append(r));
  j->set_fail_next_truncate();
  EXPECT_FALSE(j->truncate_all(r.seq));
  EXPECT_TRUE(j->dead());
  std::remove(path.c_str());
}

TEST(GroupCommitTest, TruncateSiteFsyncFailureDeadLatches) {
  const std::string path = tmp_path("site_trunc_sync");
  std::string error;
  Journal::Options opts;
  opts.truncate = true;
  auto j = Journal::open(path, opts, &error);
  ASSERT_NE(j, nullptr) << error;
  JournalRecord r = record_for("a", 1);
  ASSERT_TRUE(j->append(r));
  j->set_fail_fsync_after(0);
  EXPECT_FALSE(j->truncate_all(r.seq));
  EXPECT_TRUE(j->dead());
  std::remove(path.c_str());
}

TEST(GroupCommitTest, TornTailSiteFsyncFailureStillDeadLatches) {
  // The torn-tail write path issues its own fsync; combine a byte cut with
  // an fsync fault to prove the failure cannot resurrect the journal.
  const std::string path = tmp_path("site_torn");
  std::string error;
  Journal::Options opts;
  opts.truncate = true;
  auto j = Journal::open(path, opts, &error);
  ASSERT_NE(j, nullptr) << error;
  j->set_fail_after(4);
  j->set_fail_fsync_after(0);
  JournalRecord r = record_for("a", 1);
  EXPECT_FALSE(j->append(r));
  EXPECT_TRUE(j->dead());
  EXPECT_EQ(j->bytes_written(), 4u);
  std::remove(path.c_str());
}

TEST(GroupCommitTest, DestructorSiteFsyncFailureIsContained) {
  const std::string path = tmp_path("site_dtor");
  std::string error;
  Journal::Options opts;
  opts.fsync = FsyncPolicy::kInterval;
  opts.fsync_interval_records = 100;  // keep the append itself sync-free
  opts.truncate = true;
  auto j = Journal::open(path, opts, &error);
  ASSERT_NE(j, nullptr) << error;
  JournalRecord r = record_for("a", 1);
  ASSERT_TRUE(j->append(r));
  j->set_fail_fsync_after(0);
  j.reset();  // destructor's final flush fails; must not crash or hang
  const JournalScan scan = scan_journal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.records.size(), 1u);
  std::remove(path.c_str());
}

TEST(GroupCommitTest, DestructorFlushesOutstandingTickets) {
  const std::string path = tmp_path("dtor_drain");
  std::string error;
  auto j = Journal::open(path, group_options(64, 500000), &error);
  ASSERT_NE(j, nullptr) << error;
  // Huge delay: the flusher would normally sit on these for half a second;
  // destruction must flush them instead of dropping them.
  std::vector<CommitTicket> tickets;
  for (int i = 0; i < 5; ++i) {
    JournalRecord r = record_for("a", i);
    tickets.push_back(j->append_async(r));
  }
  j.reset();
  for (CommitTicket& t : tickets) EXPECT_TRUE(t.wait());
  EXPECT_EQ(scan_journal(path).records.size(), 5u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stemcp::persist
