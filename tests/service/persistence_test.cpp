// Service-layer durability tests: the journal/checkpoint/recover request
// flow, protocol verbs, metrics, and the crash-recovery soak — kill the
// journal at every record boundary and at mid-record torn tails, recover,
// and require the rebuilt session's save image to be byte-identical to the
// pre-crash state with every violation/restore re-derived.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/trace.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "pipeline_design.h"
#include "service/design_service.h"
#include "service/protocol.h"
#include "workload/synth.h"

namespace stemcp::service {
namespace {

std::string tmp_base(const std::string& name) {
  return testing::TempDir() + "stemcp_persistence_test_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  ASSERT_TRUE(out.good()) << path;
}

Request make(RequestType t, const std::string& session, std::string text = {}) {
  Request r;
  r.type = t;
  r.session = session;
  r.text = std::move(text);
  return r;
}

Request assign(RequestType t, const std::string& session,
               std::vector<Assignment> as) {
  Request r;
  r.type = t;
  r.session = session;
  r.assignments = std::move(as);
  return r;
}

std::string save_image(DesignService& svc, const std::string& session) {
  Response r = svc.call(make(RequestType::kSave, session));
  EXPECT_TRUE(r.ok) << r.error;
  return r.text;
}

TEST(ServicePersistenceTest, JournalCheckpointRecoverRoundTrip) {
  const std::string base = tmp_base("roundtrip");
  DesignService svc(2);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main")).ok);
  Response r = svc.call(make(RequestType::kJournal, "main", base + " none"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("journaling main"), std::string::npos) << r.text;

  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "main", kPipeline)).ok);
  r = svc.call(assign(RequestType::kAssign, "main",
                      {{"PIPE/s0.delay(in->out)", 50e-9},
                       {"PIPE/s1.delay(in->out)", 60e-9}}));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.violation);
  const std::string before = save_image(svc, "main");

  // Clean shutdown: close flushes and ends the log with a close marker.
  ASSERT_TRUE(svc.call(make(RequestType::kClose, "main")).ok);
  const persist::JournalScan scan =
      persist::scan_journal(persist::journal_path(base));
  ASSERT_TRUE(scan.ok()) << scan.error;
  ASSERT_FALSE(scan.records.empty());
  EXPECT_EQ(scan.records.front().line, "open main");
  EXPECT_EQ(scan.records.back().line, "close main");

  // Rebuild under the same name in a fresh service: byte-identical state.
  DesignService svc2(2);
  r = svc2.call(make(RequestType::kRecover, "main", base));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("0 outcome mismatch(es)"), std::string::npos)
      << r.text;
  EXPECT_EQ(save_image(svc2, "main"), before);

  // The recovered session keeps journaling where the log left off.
  const std::uint64_t last_seq = scan.records.back().seq;
  r = svc2.call(assign(RequestType::kAssign, "main",
                       {{"PIPE/s0.delay(in->out)", 55e-9}}));
  ASSERT_TRUE(r.ok) << r.error;
  const persist::JournalScan scan2 =
      persist::scan_journal(persist::journal_path(base));
  ASSERT_TRUE(scan2.ok()) << scan2.error;
  ASSERT_GT(scan2.records.size(), scan.records.size());
  EXPECT_EQ(scan2.records.back().line.rfind("assign main ", 0), 0u);
  EXPECT_EQ(scan2.records.back().seq, last_seq + 1);
}

TEST(ServicePersistenceTest, CheckpointTruncatesJournalAndRecovers) {
  const std::string base = tmp_base("checkpoint");
  DesignService svc(2);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kJournal, "main", base + " none")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "main", kPipeline)).ok);
  ASSERT_TRUE(svc.call(assign(RequestType::kAssign, "main",
                              {{"PIPE/s0.delay(in->out)", 50e-9}}))
                  .ok);
  const std::string before = save_image(svc, "main");

  Response r = svc.call(make(RequestType::kCheckpoint, "main"));
  ASSERT_TRUE(r.ok) << r.error;
  // All state now lives in the checkpoint; the journal restarts empty.
  EXPECT_EQ(slurp(persist::journal_path(base)), "");
  persist::CheckpointMeta meta;
  ASSERT_TRUE(persist::parse_checkpoint_header(
      slurp(persist::checkpoint_path(base)), &meta));
  EXPECT_EQ(meta.session, "main");
  EXPECT_GE(meta.seq, 3u);  // open + load + assign

  DesignService svc2(2);
  r = svc2.call(make(RequestType::kRecover, "main", base));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("replayed 0 record(s)"), std::string::npos) << r.text;
  EXPECT_EQ(save_image(svc2, "main"), before);
}

// A checkpoint taken mid-traffic must keep the #USER values designers set
// on instances: the library text does not carry them, and a later edit's
// outcome depends on them (the instance delay below protects its value, so
// the class edit violates).  Recovery must re-derive that violation and
// rebuild the live state byte for byte.
TEST(ServicePersistenceTest, CheckpointKeepsInstanceUserValues) {
  const std::string base = tmp_base("user_values");
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "s")).ok);
  ASSERT_TRUE(
      svc.call(make(RequestType::kLoad, "s", workload::pipeline_design())).ok);
  ASSERT_TRUE(
      svc.call(make(RequestType::kJournal, "s", base + " every-record")).ok);
  ASSERT_TRUE(svc.call(assign(RequestType::kAssign, "s",
                              {{"PIPE/s0.delay(in->out)", 2e-9}}))
                  .ok);
  ASSERT_TRUE(svc.call(make(RequestType::kCheckpoint, "s")).ok);
  Response r =
      svc.call(make(RequestType::kEdit, "s", "leaf-delay STAGE in out 3e-9"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.violation);
  EXPECT_EQ(r.variables_restored, 1u);
  const std::string image = save_image(svc, "s");
  const Response vars = svc.call(make(RequestType::kQuery, "s", "vars"));
  ASSERT_TRUE(vars.ok) << vars.error;
  ASSERT_TRUE(svc.call(make(RequestType::kClose, "s")).ok);

  DesignService svc2(1);
  r = svc2.call(make(RequestType::kRecover, "s", base));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("replayed 1 record(s), 0 outcome mismatch(es)"),
            std::string::npos)
      << r.text;
  EXPECT_EQ(save_image(svc2, "s"), image);
  EXPECT_EQ(svc2.call(make(RequestType::kQuery, "s", "vars")).text, vars.text);
}

// On a journaled session a request is rendered before it runs: one the log
// could not carry fails with ok=false and mutates nothing.  The same
// request runs on a session without a journal.
TEST(ServicePersistenceTest, UnjournalableRequestFailsBeforeItRuns) {
  const std::string base = tmp_base("unjournalable");
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kJournal, "main", base + " none")).ok);
  const std::string journal_before = slurp(persist::journal_path(base));
  const Request two_lines = make(RequestType::kEdit, "main", "cell X\n");
  Response r = svc.call(two_lines);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cannot be journaled"), std::string::npos) << r.error;
  r = svc.call(make(RequestType::kQuery, "main", "cells"));
  EXPECT_EQ(r.text.find("X\n"), std::string::npos) << r.text;
  EXPECT_EQ(slurp(persist::journal_path(base)), journal_before);

  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "plain")).ok);
  Request same = two_lines;
  same.session = "plain";
  EXPECT_TRUE(svc.call(same).ok);
}

// A journal line never makes recovery read another file: a CRC-valid
// `load ... file` record fails the recovery instead.
TEST(ServicePersistenceTest, RecoveryRefusesLoadFileRecords) {
  const std::string base = tmp_base("load_file");
  const std::string library = tmp_base("load_file.lib");
  spit(library, kPipeline);
  persist::JournalRecord rec;
  rec.seq = 1;
  rec.line = "load main file " + library;
  spit(persist::journal_path(base), persist::encode_record(rec));

  DesignService svc(1);
  const Response r = svc.call(make(RequestType::kRecover, "main", base));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("journal record 1: 'load ... file' is not allowed"),
            std::string::npos)
      << r.error;
  EXPECT_EQ(svc.sessions().find("main"), nullptr);
}

TEST(ServicePersistenceTest, DeadJournalDegradesWithWarning) {
  const std::string base = tmp_base("dead");
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kJournal, "main", base + " none")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "main", kPipeline)).ok);
  svc.sessions().find("main")->journal()->set_fail_after(4);

  Response r = svc.call(assign(RequestType::kAssign, "main",
                               {{"PIPE/s0.delay(in->out)", 50e-9}}));
  ASSERT_TRUE(r.ok) << r.error;  // the in-memory session keeps serving
  EXPECT_NE(r.text.find("journal write failed"), std::string::npos) << r.text;

  r = svc.call(make(RequestType::kCheckpoint, "main"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("dead"), std::string::npos) << r.error;
}

TEST(ServicePersistenceTest, RecoverErrors) {
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "taken")).ok);
  Response r =
      svc.call(make(RequestType::kRecover, "taken", tmp_base("unused")));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("already exists"), std::string::npos) << r.error;

  // Nothing on disk: recovery is a cold start into an empty session.
  r = svc.call(make(RequestType::kRecover, "cold", tmp_base("absent")));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("replayed 0 record(s)"), std::string::npos) << r.text;

  // Journaling twice is refused.
  ASSERT_TRUE(
      svc.call(make(RequestType::kJournal, "taken", tmp_base("dup"))).ok);
  r = svc.call(make(RequestType::kJournal, "taken", tmp_base("dup2")));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("already journaling"), std::string::npos) << r.error;

  // Checkpoint without a journal is refused.
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "plain")).ok);
  r = svc.call(make(RequestType::kCheckpoint, "plain"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no journal"), std::string::npos) << r.error;
}

TEST(ServicePersistenceTest, MetricsRecordJournalAndReplay) {
  const std::string base = tmp_base("metrics");
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main", "metrics")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kJournal, "main", base)).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "main", kPipeline)).ok);
  Response r = svc.call(make(RequestType::kQuery, "main", "stats"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("journal.bytes"), std::string::npos) << r.text;
  EXPECT_NE(r.text.find("journal.fsync_ns"), std::string::npos) << r.text;
  EXPECT_NE(r.text.find("journal: base"), std::string::npos) << r.text;
  ASSERT_TRUE(svc.call(make(RequestType::kClose, "main")).ok);

  DesignService svc2(1);
  // The checkpoint recorded "metrics", so the recovered session measures its
  // own replay.
  ASSERT_TRUE(svc2.call(make(RequestType::kRecover, "main", base)).ok);
  r = svc2.call(make(RequestType::kQuery, "main", "stats"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("recover.replay_ns"), std::string::npos) << r.text;
}

/// The decimal number right after the first `key` at or past `from`.
std::uint64_t number_after(const std::string& text, const std::string& key,
                           std::size_t from = 0) {
  const std::size_t at = text.find(key, from);
  EXPECT_NE(at, std::string::npos) << "'" << key << "' in " << text;
  return at == std::string::npos ? 0
                                 : std::stoull(text.substr(at + key.size()));
}

// `query stats` reads the journal's own counters live: right after a
// group-commit session's last write, the journal.records metric counts the
// same records as the journal: line.
TEST(ServicePersistenceTest, StatsCountEveryRecordUnderGroupCommit) {
  const std::string base = tmp_base("gc_stats");
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main", "metrics")).ok);
  ASSERT_TRUE(
      svc.call(make(RequestType::kJournal, "main", base + " group-commit")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "main", kPipeline)).ok);
  ASSERT_TRUE(svc.call(assign(RequestType::kAssign, "main",
                              {{"PIPE/s0.delay(in->out)", 50e-9}}))
                  .ok);
  ASSERT_TRUE(svc.call(assign(RequestType::kAssign, "main",
                              {{"PIPE/s1.delay(in->out)", 60e-9}}))
                  .ok);
  const Response r = svc.call(make(RequestType::kQuery, "main", "stats"));
  ASSERT_TRUE(r.ok) << r.error;
  const std::uint64_t records =
      number_after(r.text, " records ", r.text.find("journal: base"));
  EXPECT_EQ(records, 4u) << r.text;  // open marker, load, two assigns
  EXPECT_EQ(number_after(r.text, "\"journal.records\":"), records) << r.text;
}

// A closing session folds its journal's counters into its registry, and so
// into the process-global metrics: every record written is counted, under
// every policy.
TEST(ServicePersistenceTest, CloseFoldsEveryRecordIntoGlobalMetrics) {
  for (const char* policy :
       {"every-record", "interval 8", "none", "group-commit"}) {
    SCOPED_TRACE(policy);
    const std::string base = tmp_base("fold");
    const std::uint64_t before =
        core::global_metrics_snapshot().counter("journal.records");
    DesignService svc(1);
    ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main", "metrics")).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kJournal, "main",
                              base + " " + policy))
                    .ok);
    ASSERT_TRUE(svc.call(make(RequestType::kLoad, "main", kPipeline)).ok);
    ASSERT_TRUE(svc.call(assign(RequestType::kAssign, "main",
                                {{"PIPE/s0.delay(in->out)", 50e-9}}))
                    .ok);
    ASSERT_TRUE(svc.call(assign(RequestType::kAssign, "main",
                                {{"PIPE/s1.delay(in->out)", 60e-9}}))
                    .ok);
    ASSERT_TRUE(svc.call(make(RequestType::kClose, "main")).ok);
    const persist::JournalScan scan =
        persist::scan_journal(persist::journal_path(base));
    ASSERT_TRUE(scan.ok()) << scan.error;
    EXPECT_EQ(scan.records.size(), 5u);  // open, load, two assigns, close
    EXPECT_EQ(core::global_metrics_snapshot().counter("journal.records") -
                  before,
              scan.records.size());
  }
}

// A select that does not commit, and a select-stats, is still journaled:
// costing a realization demands its class bounding box, and a missing one
// is computed and assigned as #APPLICATION.  Recovery must replay the
// search to get the box back.
TEST(ServicePersistenceTest, NonCommittingSelectIsJournaledForItsBoxes) {
  const char* kDesign = R"(cell LEAF
  bbox 0 0 4 4
  signal a input
  signal out output
  delay a out value 1e-9
end
cell ADD generic
  signal a input
  signal out output
  delay a out
end
cell ADD.X super ADD
  signal a input
  signal out output
  delay a out
  subcell l LEAF R0 0 0
  net n_in
    io a
    conn l a
  net n_out
    conn l out
    io out
end
cell ALU
  signal a input
  signal out output
  delay a out
    spec <= 6e-9
  subcell add ADD R0 0 0
  net n_in
    io a
    conn add a
  net n_out
    conn add out
    io out
end
)";
  // select-stats runs the same search as select, so it is journaled too.
  for (const RequestType verb :
       {RequestType::kSelect, RequestType::kSelectStats}) {
    SCOPED_TRACE(service::to_string(verb));
    const std::string base =
        tmp_base(std::string("select_box_") + service::to_string(verb));
    DesignService svc(1);
    ASSERT_TRUE(svc.call(make(RequestType::kOpen, "s")).ok);
    ASSERT_TRUE(
        svc.call(make(RequestType::kJournal, "s", base + " none")).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kLoad, "s", kDesign)).ok);
    const Request box = make(RequestType::kQuery, "s", "ADD.X.boundingBox");
    EXPECT_EQ(svc.call(box).text, "ADD.X.boundingBox = nil (#NONE)\n");
    const Response sel = svc.call(make(verb, "s", "ALU limit 4"));
    ASSERT_TRUE(sel.ok) << sel.error;
    const std::string live = svc.call(box).text;
    EXPECT_EQ(live, "ADD.X.boundingBox = [0,0 4,4] (#APPLICATION)\n");
    ASSERT_TRUE(svc.call(make(RequestType::kClose, "s")).ok);

    DesignService svc2(1);
    const Response r = svc2.call(make(RequestType::kRecover, "s", base));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_NE(r.text.find("replayed 2 record(s), 0 outcome mismatch(es)"),
              std::string::npos)
        << r.text;
    EXPECT_EQ(svc2.call(box).text, live);
  }
}

TEST(ServicePersistenceTest, FrontEndSpeaksDurabilityVerbs) {
  const std::string base = tmp_base("frontend");
  DesignService svc(1);
  ServiceFrontEnd fe(svc);
  EXPECT_EQ(fe.execute("open a"), "ok\nopened a\n");
  std::string out = fe.execute("journal a " + base + " interval 8");
  EXPECT_EQ(out.find("ok\n"), 0u) << out;
  EXPECT_NE(out.find("fsync interval"), std::string::npos) << out;
  out = fe.execute("edit a cell BLK");
  EXPECT_EQ(out.find("ok\n"), 0u) << out;
  out = fe.execute("checkpoint a");
  EXPECT_NE(out.find("checkpoint of a at seq"), std::string::npos) << out;
  EXPECT_EQ(fe.execute("close a"), "ok\nclosed a\n");
  out = fe.execute("recover b " + base);
  EXPECT_EQ(out.find("ok\n"), 0u) << out;
  EXPECT_NE(out.find("recovered b"), std::string::npos) << out;
  // The rebuilt session has the edit.
  out = fe.execute("query b cells");
  EXPECT_NE(out.find("BLK"), std::string::npos) << out;

  out = fe.execute("journal b");
  EXPECT_NE(out.find("journal needs a base path"), std::string::npos) << out;
  out = fe.execute("recover c");
  EXPECT_NE(out.find("recover needs a base path"), std::string::npos) << out;
}

TEST(ServicePersistenceTest, ParseErrorsCarryByteOffsets) {
  Request req;
  std::string error;
  EXPECT_FALSE(ServiceFrontEnd::parse("assign s", &req, &error));
  EXPECT_NE(error.find("(at byte 8)"), std::string::npos) << error;
  EXPECT_FALSE(ServiceFrontEnd::parse("assign s x", &req, &error));
  EXPECT_NE(error.find("(at byte 10)"), std::string::npos) << error;
  EXPECT_FALSE(ServiceFrontEnd::parse("bogus s", &req, &error));
  EXPECT_NE(error.find("(at byte 0)"), std::string::npos) << error;
  EXPECT_FALSE(ServiceFrontEnd::parse("load s nowhere", &req, &error));
  EXPECT_NE(error.find("(at byte"), std::string::npos) << error;
  EXPECT_FALSE(ServiceFrontEnd::parse("", &req, &error));
  EXPECT_NE(error.find("(at byte 0)"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// The crash-recovery soak (the tentpole's acceptance proof).
//
// Drive a journaled session through a scripted mix of loads, assignments
// (clean AND violating) and edits, snapshotting the save image after every
// mutation.  Then, for every record boundary and several torn offsets inside
// every record, truncate a copy of the journal there — exactly what a crash
// mid-write leaves — recover, and require:
//   * the rebuilt save image is byte-identical to the snapshot taken at that
//     point of history, and
//   * every replayed record re-derives its recorded violation/restore
//     outcome (the recover report says 0 mismatches).
TEST(ServicePersistenceTest, CrashRecoverySoakAtEveryRecordBoundary) {
  const std::string base = tmp_base("soak");
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kJournal, "main", base + " none")).ok);

  std::vector<std::string> images;  // images[i]: state after i-th mutation
  images.push_back(save_image(svc, "main"));

  const auto mutate = [&](const Request& r, bool expect_violation) {
    const Response resp = svc.call(r);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.violation, expect_violation);
    images.push_back(save_image(svc, "main"));
  };
  mutate(make(RequestType::kLoad, "main", kPipeline), false);
  mutate(assign(RequestType::kAssign, "main",
                {{"PIPE/s0.delay(in->out)", 50e-9}}),
         false);
  mutate(assign(RequestType::kAssign, "main",
                {{"PIPE/s1.delay(in->out)", 40e-9}}),
         false);
  // A violating batch: 90 + 90 = 180 ns > the 160 ns spec.  It restores
  // everything (no state change) but MUST re-derive on replay.
  mutate(assign(RequestType::kBatchAssign, "main",
                {{"PIPE/s0.delay(in->out)", 90e-9},
                 {"PIPE/s1.delay(in->out)", 90e-9}}),
         true);
  mutate(make(RequestType::kEdit, "main", "cell EXTRA"), false);
  mutate(make(RequestType::kEdit, "main", "signal EXTRA clk input"), false);
  mutate(make(RequestType::kEdit, "main", "param EXTRA width 1 64 default 8"),
         false);
  mutate(assign(RequestType::kBatchAssign, "main",
                {{"PIPE/s0.delay(in->out)", 70e-9},
                 {"PIPE/s1.delay(in->out)", 80e-9}}),
         false);
  const std::size_t n_mut = images.size() - 1;
  ASSERT_TRUE(svc.call(make(RequestType::kClose, "main")).ok);

  // Reconstruct each record's byte extent from the closed journal (the codec
  // round-trips exactly, so re-encoding gives the on-disk lengths).
  const std::string journal_bytes = slurp(persist::journal_path(base));
  const std::string ckpt_bytes = slurp(persist::checkpoint_path(base));
  const persist::JournalScan scan =
      persist::scan_journal(persist::journal_path(base));
  ASSERT_TRUE(scan.ok()) << scan.error;
  ASSERT_EQ(scan.records.size(), n_mut + 2);  // open + mutations + close
  std::vector<std::size_t> ends;  // ends[i]: end offset of record i
  std::size_t off = 0;
  for (const persist::JournalRecord& rec : scan.records) {
    off += persist::encode_record(rec).size();
    ends.push_back(off);
  }
  ASSERT_EQ(off, journal_bytes.size());

  // Crash points: every record boundary, and torn tails inside every record.
  std::set<std::size_t> cuts = {0};
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    const std::size_t len = end - begin;
    cuts.insert(begin + 1);
    cuts.insert(begin + len / 4);
    cuts.insert(begin + len / 2);
    cuts.insert(begin + 3 * len / 4);
    cuts.insert(end - 1);
    cuts.insert(end);
    begin = end;
  }

  int checked = 0;
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("crash at byte " + std::to_string(cut) + " of " +
                 std::to_string(journal_bytes.size()));
    // Complete records surviving the cut -> which snapshot must come back.
    const std::size_t complete = static_cast<std::size_t>(
        std::count_if(ends.begin(), ends.end(),
                      [&](std::size_t e) { return e <= cut; }));
    const std::size_t expect =
        std::min(complete == 0 ? 0 : complete - 1, n_mut);

    const std::string crash_base = base + "_cut" + std::to_string(cut);
    spit(persist::checkpoint_path(crash_base), ckpt_bytes);
    spit(persist::journal_path(crash_base), journal_bytes.substr(0, cut));

    DesignService rec_svc(1);
    const Response r =
        rec_svc.call(make(RequestType::kRecover, "main", crash_base));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_NE(r.text.find("0 outcome mismatch(es)"), std::string::npos)
        << r.text;
    EXPECT_EQ(save_image(rec_svc, "main"), images[expect]);
    ++checked;
  }
  // open + 8 mutations + close, ~5 interior cuts each, plus boundaries.
  EXPECT_GE(checked, 40) << "soak did not exercise enough crash points";
}

}  // namespace
}  // namespace stemcp::service
