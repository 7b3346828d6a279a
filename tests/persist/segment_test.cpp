// Segmented-journal tests: rollover at the size threshold, merged segment
// scans (parallel workers, exact seq order), numbering continuation across
// reopen, truncation deleting sealed segments, and the strict sealed-segment
// rules (torn sealed = fatal, numbering gap = fatal, torn active = fine).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "persist/journal.h"

namespace stemcp::persist {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "stemcp_segment_test_" + name;
}

void remove_all(const std::string& path) {
  for (const std::uint64_t n : list_journal_segments(path)) {
    std::remove(journal_segment_path(path, n).c_str());
  }
  std::remove(path.c_str());
}

JournalRecord record_for(int i) {
  JournalRecord r;
  r.line = "assign seg X.delay " + std::to_string(i) + "e-09";
  r.applied = 1;
  return r;
}

std::size_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.good() ? static_cast<std::size_t>(in.tellg()) : 0;
}

/// Write `count` records through a tiny-threshold journal so several sealed
/// segments exist; returns the journal for further use.
std::unique_ptr<Journal> make_segmented(const std::string& path, int count,
                                        std::uint64_t segment_bytes = 128,
                                        bool truncate = true) {
  Journal::Options opts;
  opts.truncate = truncate;
  opts.segment_bytes = segment_bytes;
  std::string error;
  auto j = Journal::open(path, opts, &error);
  EXPECT_NE(j, nullptr) << error;
  if (j == nullptr) return nullptr;
  for (int i = 0; i < count; ++i) {
    JournalRecord r = record_for(i);
    EXPECT_TRUE(j->append(r));
  }
  return j;
}

TEST(SegmentTest, RollsAtThresholdAndScanMergesInOrder) {
  const std::string path = tmp_path("roll");
  remove_all(path);
  auto j = make_segmented(path, 12);
  ASSERT_NE(j, nullptr);
  EXPECT_GE(j->sealed_segments(), 2u) << "128-byte threshold must roll";
  const std::vector<std::uint64_t> segs = list_journal_segments(path);
  ASSERT_EQ(segs.size(), j->sealed_segments());
  for (std::size_t i = 0; i < segs.size(); ++i) EXPECT_EQ(segs[i], i + 1);
  // Every sealed file stays modest (threshold + one record's overshoot).
  for (const std::uint64_t n : segs) {
    EXPECT_LT(file_size(journal_segment_path(path, n)), 256u);
  }
  const JournalScan scan = scan_journal_segments(path);
  ASSERT_TRUE(scan.ok()) << scan.error;
  ASSERT_EQ(scan.records.size(), 12u);
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(scan.records[i].seq, i + 1);
  }
  // The active-file scan alone must NOT see the sealed records.
  EXPECT_LT(scan_journal(path).records.size(), 12u);
  remove_all(path);
}

TEST(SegmentTest, ScanWithExplicitParallelismMatchesSerial) {
  const std::string path = tmp_path("par");
  remove_all(path);
  auto j = make_segmented(path, 16);
  ASSERT_NE(j, nullptr);
  ASSERT_GE(j->sealed_segments(), 3u);
  const JournalScan serial = scan_journal_segments(path, 1);
  const JournalScan wide = scan_journal_segments(path, 4);
  ASSERT_TRUE(serial.ok()) << serial.error;
  ASSERT_TRUE(wide.ok()) << wide.error;
  ASSERT_EQ(serial.records.size(), wide.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i], wide.records[i]);
  }
  remove_all(path);
}

TEST(SegmentTest, ReopenContinuesSegmentNumbering) {
  const std::string path = tmp_path("reopen");
  remove_all(path);
  std::uint64_t sealed_before = 0;
  {
    auto j = make_segmented(path, 8);
    ASSERT_NE(j, nullptr);
    sealed_before = j->sealed_segments();
    ASSERT_GE(sealed_before, 1u);
  }
  // Re-attach without truncating: numbering and seq continue.
  Journal::Options opts;
  opts.segment_bytes = 128;
  const JournalScan before = scan_journal_segments(path);
  opts.next_seq = before.records.back().seq + 1;
  std::string error;
  auto j = Journal::open(path, opts, &error);
  ASSERT_NE(j, nullptr) << error;
  EXPECT_EQ(j->sealed_segments(), sealed_before);
  for (int i = 0; i < 8; ++i) {
    JournalRecord r = record_for(100 + i);
    ASSERT_TRUE(j->append(r));
  }
  EXPECT_GT(j->sealed_segments(), sealed_before);
  const JournalScan scan = scan_journal_segments(path);
  ASSERT_TRUE(scan.ok()) << scan.error;
  ASSERT_EQ(scan.records.size(), 16u);
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(scan.records[i].seq, i + 1);
  }
  remove_all(path);
}

TEST(SegmentTest, TruncateAllDeletesSealedSegments) {
  const std::string path = tmp_path("trunc");
  remove_all(path);
  auto j = make_segmented(path, 12);
  ASSERT_NE(j, nullptr);
  ASSERT_GE(j->sealed_segments(), 2u);
  ASSERT_TRUE(j->truncate_all(12));
  EXPECT_EQ(j->sealed_segments(), 0u);
  EXPECT_TRUE(list_journal_segments(path).empty());
  EXPECT_EQ(file_size(path), 0u);
  // Numbering restarts at 1 after the cut.
  JournalRecord r = record_for(99);
  ASSERT_TRUE(j->append(r));
  EXPECT_EQ(r.seq, 13u);
  const JournalScan scan = scan_journal_segments(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.records.size(), 1u);
  remove_all(path);
}

TEST(SegmentTest, TruncatingOpenRemovesStaleSegments) {
  const std::string path = tmp_path("fresh");
  remove_all(path);
  { auto j = make_segmented(path, 12); ASSERT_NE(j, nullptr); }
  ASSERT_FALSE(list_journal_segments(path).empty());
  Journal::Options opts;
  opts.truncate = true;
  opts.segment_bytes = 128;
  std::string error;
  auto j = Journal::open(path, opts, &error);
  ASSERT_NE(j, nullptr) << error;
  EXPECT_EQ(j->sealed_segments(), 0u);
  EXPECT_TRUE(list_journal_segments(path).empty());
  remove_all(path);
}

TEST(SegmentTest, GroupCommitPolicyRollsSegmentsToo) {
  const std::string path = tmp_path("gc");
  remove_all(path);
  Journal::Options opts;
  opts.fsync = FsyncPolicy::kGroupCommit;
  opts.truncate = true;
  opts.segment_bytes = 128;
  std::string error;
  auto j = Journal::open(path, opts, &error);
  ASSERT_NE(j, nullptr) << error;
  for (int i = 0; i < 12; ++i) {
    JournalRecord r = record_for(i);
    ASSERT_TRUE(j->append(r));
  }
  EXPECT_GE(j->sealed_segments(), 1u);
  const JournalScan scan = scan_journal_segments(path);
  ASSERT_TRUE(scan.ok()) << scan.error;
  ASSERT_EQ(scan.records.size(), 12u);
  remove_all(path);
}

TEST(SegmentTest, TornActiveFileIsTolerated) {
  const std::string path = tmp_path("torn_active");
  remove_all(path);
  { auto j = make_segmented(path, 10); ASSERT_NE(j, nullptr); }
  // Tear the ACTIVE file: append garbage without a newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "J1 deadbeef torn";
  }
  const JournalScan scan = scan_journal_segments(path);
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 10u);
  // valid_bytes describes the active file only, so recovery can cut it.
  ASSERT_TRUE(truncate_journal(path, scan.valid_bytes));
  const JournalScan after = scan_journal_segments(path);
  EXPECT_FALSE(after.torn_tail);
  EXPECT_EQ(after.records.size(), 10u);
  remove_all(path);
}

TEST(SegmentTest, TornSealedSegmentIsFatal) {
  const std::string path = tmp_path("torn_sealed");
  remove_all(path);
  { auto j = make_segmented(path, 10); ASSERT_NE(j, nullptr); }
  const std::vector<std::uint64_t> segs = list_journal_segments(path);
  ASSERT_FALSE(segs.empty());
  {
    std::ofstream out(journal_segment_path(path, segs.front()),
                      std::ios::binary | std::ios::app);
    out << "J1 deadbeef torn";
  }
  const JournalScan scan = scan_journal_segments(path);
  EXPECT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("torn tail"), std::string::npos) << scan.error;
  remove_all(path);
}

TEST(SegmentTest, CorruptSealedSegmentIsFatal) {
  const std::string path = tmp_path("corrupt_sealed");
  remove_all(path);
  { auto j = make_segmented(path, 10); ASSERT_NE(j, nullptr); }
  const std::vector<std::uint64_t> segs = list_journal_segments(path);
  ASSERT_FALSE(segs.empty());
  const std::string seg = journal_segment_path(path, segs.front());
  // Flip a byte mid-record: checksum mismatch with records after it.
  std::string contents;
  {
    std::ifstream in(seg, std::ios::binary);
    contents.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(contents.size(), 20u);
  contents[15] = contents[15] == 'x' ? 'y' : 'x';
  {
    std::ofstream out(seg, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  const JournalScan scan = scan_journal_segments(path);
  EXPECT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("sealed segment"), std::string::npos) << scan.error;
  remove_all(path);
}

TEST(SegmentTest, NumberingGapIsFatal) {
  const std::string path = tmp_path("gap");
  remove_all(path);
  auto j = make_segmented(path, 16);
  ASSERT_NE(j, nullptr);
  ASSERT_GE(j->sealed_segments(), 2u);
  std::remove(journal_segment_path(path, 1).c_str());
  const JournalScan scan = scan_journal_segments(path);
  EXPECT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("numbering gap"), std::string::npos) << scan.error;
  remove_all(path);
}

TEST(SegmentTest, SeqDiscontinuityAcrossSegmentsIsFatal) {
  const std::string path = tmp_path("seq");
  remove_all(path);
  { auto j = make_segmented(path, 12); ASSERT_NE(j, nullptr); }
  const std::vector<std::uint64_t> segs = list_journal_segments(path);
  ASSERT_GE(segs.size(), 2u);
  // Replace segment 2 with a copy of segment 1: valid records, wrong seqs.
  std::string contents;
  {
    std::ifstream in(journal_segment_path(path, 1), std::ios::binary);
    contents.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(journal_segment_path(path, 2),
                      std::ios::binary | std::ios::trunc);
    out << contents;
  }
  const JournalScan scan = scan_journal_segments(path);
  EXPECT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("does not continue"), std::string::npos)
      << scan.error;
  remove_all(path);
}

TEST(SegmentTest, SegmentPathAndListingHelpers) {
  EXPECT_EQ(journal_segment_path("/tmp/x.journal", 3), "/tmp/x.journal.3");
  const std::string path = tmp_path("helpers");
  remove_all(path);
  // Files with non-numeric suffixes are not segments.
  { std::ofstream(path + ".1") << "x"; }
  { std::ofstream(path + ".2") << "x"; }
  { std::ofstream(path + ".bak") << "x"; }
  { std::ofstream(path + ".10") << "x"; }
  const std::vector<std::uint64_t> segs = list_journal_segments(path);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], 1u);
  EXPECT_EQ(segs[1], 2u);
  EXPECT_EQ(segs[2], 10u);
  std::remove((path + ".bak").c_str());
  remove_all(path);
}

}  // namespace
}  // namespace stemcp::persist
