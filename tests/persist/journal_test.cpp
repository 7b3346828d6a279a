// Durability-layer unit tests: record codec + CRC, the append-only journal
// writer (fsync policies, fault injection, truncation), front-to-back
// scanning with torn-tail tolerance, and atomic checkpoint files.
#include "persist/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "persist/checkpoint.h"
#include "persist/recovery.h"

namespace stemcp::persist {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "stemcp_journal_test_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

JournalRecord sample_record() {
  JournalRecord r;
  r.line = "batch-assign alpha PIPE/s0.delay(in->out) 8.9999999999999999e-08 "
           "PIPE/s1.delay(in->out) 6.0499999999999997e-08";
  r.violation = true;
  r.applied = 0;
  r.restored = 7;
  return r;
}

TEST(Crc32Test, MatchesIeeeCheckValue) {
  // The canonical CRC-32 check value for "123456789".
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(FsyncPolicyTest, NamesRoundTrip) {
  for (const FsyncPolicy p : {FsyncPolicy::kEveryRecord, FsyncPolicy::kInterval,
                              FsyncPolicy::kNone,
                              FsyncPolicy::kGroupCommit}) {
    FsyncPolicy back = FsyncPolicy::kEveryRecord;
    ASSERT_TRUE(fsync_policy_from(to_string(p), &back));
    EXPECT_EQ(back, p);
  }
  FsyncPolicy out;
  EXPECT_FALSE(fsync_policy_from("sometimes", &out));
}

// The one journal-options grammar: the `journal` verb parses it and the
// checkpoint header stores its rendering.
TEST(FsyncPolicyTest, JournalOptionsGrammarRoundTrips) {
  for (const char* text : {"every-record", "interval 8", "none segment 4096",
                           "group-commit batch 8 delay-us 100 segment 4096"}) {
    Journal::Options o;
    std::string error;
    ASSERT_TRUE(journal_options_from(text, &o, &error)) << text << ": " << error;
    EXPECT_EQ(to_string(o), text);
  }
  Journal::Options knobs_only;
  std::string error;
  ASSERT_TRUE(journal_options_from("segment 64", &knobs_only, &error)) << error;
  EXPECT_EQ(to_string(knobs_only), "every-record segment 64");
  for (const char* bad : {"sometimes", "group-commit turbo", "none 5",
                          "group-commit batch", "group-commit batch 0",
                          "group-commit batch 4294967296", "segment x"}) {
    Journal::Options o;
    EXPECT_FALSE(journal_options_from(bad, &o, &error)) << bad;
  }
  Journal::Options o;
  EXPECT_FALSE(journal_options_from("nope", &o, &error));
  EXPECT_NE(error.find("unknown fsync policy 'nope'"), std::string::npos)
      << error;
}

TEST(RecordCodecTest, RoundTripsAllFields) {
  JournalRecord r = sample_record();
  r.seq = 42;
  const std::string line = encode_record(r);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  JournalRecord back;
  std::string error;
  ASSERT_TRUE(decode_record(
      std::string_view(line).substr(0, line.size() - 1), &back, &error))
      << error;
  EXPECT_EQ(back, r);
}

TEST(RecordCodecTest, RoundTripsTextWithNewlinesAndBackslashes) {
  // A rendered load request carries its text escaped ("\n", "\\"), so the
  // record stays one line and round-trips byte for byte.
  JournalRecord r;
  r.seq = 1;
  r.line = "load s text cell A\\n  signal x input\\nend\\\\trailer "
           "\\\\n literal\\n";
  const std::string line = encode_record(r);
  EXPECT_EQ(line.find('\n'), line.size() - 1);
  JournalRecord back;
  std::string error;
  ASSERT_TRUE(decode_record(
      std::string_view(line).substr(0, line.size() - 1), &back, &error))
      << error;
  EXPECT_EQ(back, r);
  // A raw newline cannot be framed: the record is refused, not split.
  r.line = "load s text two\nlines";
  EXPECT_EQ(encode_record(r), "");
}

TEST(RecordCodecTest, RejectsCorruption) {
  JournalRecord r = sample_record();
  r.seq = 3;
  std::string line = encode_record(r);
  line.pop_back();  // strip '\n'
  JournalRecord out;
  std::string error;

  std::string flipped = line;
  flipped[line.size() / 2] ^= 0x20;  // flip a bit mid-body
  EXPECT_FALSE(decode_record(flipped, &out, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;

  EXPECT_FALSE(decode_record("garbage", &out, &error));
  EXPECT_FALSE(decode_record("", &out, &error));
  EXPECT_FALSE(decode_record(line.substr(0, line.size() / 2), &out, &error));
}

TEST(JournalTest, AppendScanRoundTrip) {
  const std::string path = tmp_path("roundtrip.journal");
  std::string error;
  Journal::Options opts;
  opts.truncate = true;
  opts.fsync = FsyncPolicy::kNone;
  auto j = Journal::open(path, opts, &error);
  ASSERT_NE(j, nullptr) << error;

  std::vector<JournalRecord> sent;
  for (int i = 0; i < 5; ++i) {
    JournalRecord r = sample_record();
    r.violation = i % 2 == 0;
    ASSERT_TRUE(j->append(r));
    EXPECT_EQ(r.seq, static_cast<std::uint64_t>(i + 1));  // assigned by append
    sent.push_back(r);
  }
  EXPECT_EQ(j->records_written(), 5u);
  EXPECT_EQ(j->next_seq(), 6u);
  j.reset();  // flush + close

  const JournalScan scan = scan_journal(path);
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(scan.records[i], sent[i]) << "record " << i;
  }
  EXPECT_EQ(scan.valid_bytes, slurp(path).size());
  std::remove(path.c_str());
}

TEST(JournalTest, MissingFileScansEmpty) {
  const JournalScan scan = scan_journal(tmp_path("does_not_exist.journal"));
  EXPECT_TRUE(scan.ok());
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(JournalTest, FailAfterLeavesTornTailAndScanDropsIt) {
  const std::string path = tmp_path("torn.journal");
  std::string error;
  Journal::Options opts;
  opts.truncate = true;
  auto j = Journal::open(path, opts, &error);
  ASSERT_NE(j, nullptr) << error;

  JournalRecord r = sample_record();
  ASSERT_TRUE(j->append(r));
  const std::uint64_t good_bytes = j->bytes_written();

  // Allow 10 more bytes: the next append is cut mid-record.
  j->set_fail_after(10);
  JournalRecord r2 = sample_record();
  EXPECT_FALSE(j->append(r2));
  EXPECT_TRUE(j->dead());
  EXPECT_EQ(j->bytes_written(), good_bytes + 10);
  EXPECT_EQ(j->append_failures(), 1u);
  // Dead journal refuses everything.
  JournalRecord r3 = sample_record();
  EXPECT_FALSE(j->append(r3));
  EXPECT_FALSE(j->sync());
  j.reset();

  const JournalScan scan = scan_journal(path);
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, good_bytes);

  // Recovery's cleanup: cut the torn bytes, rescan clean.
  ASSERT_TRUE(truncate_journal(path, scan.valid_bytes));
  const JournalScan clean = scan_journal(path);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean.torn_tail);
  EXPECT_EQ(clean.records.size(), 1u);
  std::remove(path.c_str());
}

TEST(JournalTest, MidFileCorruptionIsFatal) {
  const std::string path = tmp_path("corrupt.journal");
  std::string error;
  Journal::Options opts;
  opts.truncate = true;
  opts.fsync = FsyncPolicy::kNone;
  auto j = Journal::open(path, opts, &error);
  ASSERT_NE(j, nullptr) << error;
  for (int i = 0; i < 3; ++i) {
    JournalRecord r = sample_record();
    ASSERT_TRUE(j->append(r));
  }
  j.reset();

  // Flip a byte inside the FIRST record: valid records follow, so this is
  // corruption, not a torn tail.
  std::string contents = slurp(path);
  contents[20] ^= 0x01;
  std::ofstream(path, std::ios::binary) << contents;
  const JournalScan scan = scan_journal(path);
  EXPECT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("corrupt"), std::string::npos) << scan.error;
  std::remove(path.c_str());
}

TEST(JournalTest, TruncateAllRestartsAfterSeq) {
  const std::string path = tmp_path("truncate.journal");
  std::string error;
  Journal::Options opts;
  opts.truncate = true;
  opts.fsync = FsyncPolicy::kInterval;
  opts.fsync_interval_records = 2;
  auto j = Journal::open(path, opts, &error);
  ASSERT_NE(j, nullptr) << error;
  for (int i = 0; i < 4; ++i) {
    JournalRecord r = sample_record();
    ASSERT_TRUE(j->append(r));
  }
  ASSERT_TRUE(j->truncate_all(4));
  EXPECT_EQ(j->next_seq(), 5u);
  JournalRecord r = sample_record();
  ASSERT_TRUE(j->append(r));
  EXPECT_EQ(r.seq, 5u);
  j.reset();

  const JournalScan scan = scan_journal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 5u);
  std::remove(path.c_str());
}

TEST(JournalTest, CrashAfterEnvironmentKnobCutsEveryNewJournal) {
  const std::string path = tmp_path("envknob.journal");
  ::setenv("STEMCP_JOURNAL_CRASH_AFTER", "5", 1);
  std::string error;
  Journal::Options opts;
  opts.truncate = true;
  auto j = Journal::open(path, opts, &error);
  ::unsetenv("STEMCP_JOURNAL_CRASH_AFTER");
  ASSERT_NE(j, nullptr) << error;
  JournalRecord r = sample_record();
  EXPECT_FALSE(j->append(r));
  EXPECT_TRUE(j->dead());
  EXPECT_EQ(j->bytes_written(), 5u);
  j.reset();
  std::remove(path.c_str());
}

// One counting rule for every policy that fsyncs: a commit whose fsync
// fails commits none of its records, and its ticket carries the journal's
// one death marker.
TEST(JournalTest, FailedFsyncCommitsNothingUnderEveryPolicy) {
  for (const char* policy : {"every-record", "interval 1", "group-commit"}) {
    SCOPED_TRACE(policy);
    const std::string path = tmp_path("fsync_fault.journal");
    Journal::Options opts;
    std::string error;
    ASSERT_TRUE(journal_options_from(policy, &opts, &error)) << error;
    opts.truncate = true;
    auto j = Journal::open(path, opts, &error);
    ASSERT_NE(j, nullptr) << error;
    j->set_fail_fsync_after(0);
    JournalRecord r = sample_record();
    CommitTicket t = j->append_async(r);
    EXPECT_FALSE(t.wait());
    EXPECT_TRUE(t.faulted());
    EXPECT_TRUE(j->dead());
    EXPECT_EQ(j->records_written(), 0u);
    j.reset();
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Checkpoint files

TEST(AtomicWriteTest, WritesContentsAndLeavesNoTmp) {
  const std::string path = tmp_path("atomic.txt");
  std::string error;
  ASSERT_TRUE(atomic_write_file(path, "first\n", &error)) << error;
  EXPECT_EQ(slurp(path), "first\n");
  // Overwrite is atomic too — and the .tmp must be gone.
  ASSERT_TRUE(atomic_write_file(path, "second\n", &error)) << error;
  EXPECT_EQ(slurp(path), "second\n");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::string out;
  ASSERT_TRUE(read_file(path, &out, &error));
  EXPECT_EQ(out, "second\n");
  EXPECT_FALSE(read_file(path + ".missing", &out, &error));
  std::remove(path.c_str());
}

TEST(CheckpointTest, HeaderRoundTrips) {
  CheckpointMeta meta;
  meta.seq = 17;
  meta.session = "alpha";
  meta.options = "metrics fsync interval interval 8";
  const std::string header = encode_checkpoint_header(meta);
  EXPECT_EQ(header.front(), '#');  // a comment line to LibraryReader
  CheckpointMeta back;
  ASSERT_TRUE(parse_checkpoint_header(header, &back));
  EXPECT_EQ(back.seq, meta.seq);
  EXPECT_EQ(back.session, meta.session);
  EXPECT_EQ(back.options, meta.options);

  CheckpointMeta none;
  EXPECT_FALSE(parse_checkpoint_header("# stemcp library 'x'\ncell A\n",
                                       &none));
  EXPECT_FALSE(parse_checkpoint_header("", &none));
}

TEST(CheckpointTest, WriteAndRecoverLogRoundTrip) {
  const std::string base = tmp_path("ckpt_base");
  CheckpointMeta meta;
  meta.seq = 2;
  meta.session = "s";
  meta.options = "metrics";
  std::string error;
  ASSERT_TRUE(write_checkpoint(checkpoint_path(base), meta,
                               "cell A\nend\n", &error))
      << error;

  // Journal continues past the checkpoint, plus one stale pre-checkpoint
  // record (as left by a crash between checkpoint-rename and truncate).
  Journal::Options opts;
  opts.truncate = true;
  opts.fsync = FsyncPolicy::kNone;
  auto j = Journal::open(journal_path(base), opts, &error);
  ASSERT_NE(j, nullptr) << error;
  for (int i = 0; i < 4; ++i) {  // seqs 1..4; 1..2 are pre-checkpoint
    JournalRecord r = sample_record();
    ASSERT_TRUE(j->append(r));
  }
  j.reset();

  const RecoveredLog log = load_recovered_log(base);
  ASSERT_TRUE(log.ok) << log.error;
  ASSERT_TRUE(log.has_checkpoint);
  EXPECT_EQ(log.meta.seq, 2u);
  EXPECT_EQ(log.meta.options, "metrics");
  EXPECT_EQ(log.checkpoint_text, "cell A\nend\n");
  EXPECT_EQ(log.scan.records.size(), 4u);
  ASSERT_EQ(log.replay.size(), 2u);  // stale seqs 1..2 filtered out
  EXPECT_EQ(log.replay[0].seq, 3u);
  EXPECT_EQ(log.replay[1].seq, 4u);

  std::remove(checkpoint_path(base).c_str());
  std::remove(journal_path(base).c_str());
}

TEST(CheckpointTest, MissingCheckpointIsColdStart) {
  const RecoveredLog log = load_recovered_log(tmp_path("nothing_here"));
  EXPECT_TRUE(log.ok);
  EXPECT_FALSE(log.has_checkpoint);
  EXPECT_TRUE(log.replay.empty());
}

}  // namespace
}  // namespace stemcp::persist
