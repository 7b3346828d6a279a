// Service-layer group-commit tests: the journal verb's group-commit grammar
// and its checkpoint-header round trip, recovery rejecting a corrupt fsync
// header word, crash soaks at flush boundaries (byte cuts and flush-count
// cuts) proving byte-identical recovery, segmented multi-session recovery,
// dead-journal degradation under group commit (exactly one fault anomaly),
// and a multi-threaded ticket-completion hammer (the TSan lane's target).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "service/design_service.h"
#include "service/protocol.h"

namespace stemcp::service {
namespace {

const char* kPipeline = R"(cell STAGE
  signal in input
  signal out output
  delay in out
end
cell PIPE
  signal in input
  signal out output
  delay in out
    spec <= 160e-9
  subcell s0 STAGE R0 0 0
  subcell s1 STAGE R0 10 0
  net n_in
    io in
    conn s0 in
  net n_mid
    conn s0 out
    conn s1 in
  net n_out
    conn s1 out
    io out
end
)";

std::string tmp_base(const std::string& name) {
  return testing::TempDir() + "stemcp_gc_service_test_" + name;
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

Request assign(const std::string& session, std::vector<Assignment> as) {
  Request r;
  r.type = RequestType::kAssign;
  r.session = session;
  r.assignments = std::move(as);
  return r;
}

std::string save_image(DesignService& svc, const std::string& session) {
  Response r = svc.call(make(RequestType::kSave, session));
  EXPECT_TRUE(r.ok) << r.error;
  return r.text;
}

void remove_segments(const std::string& base) {
  const std::string jpath = persist::journal_path(base);
  for (const std::uint64_t n : persist::list_journal_segments(jpath)) {
    std::remove(persist::journal_segment_path(jpath, n).c_str());
  }
  std::remove(jpath.c_str());
  std::remove(persist::checkpoint_path(base).c_str());
}

TEST(GroupCommitServiceTest, GrammarAndCheckpointHeaderRoundTrip) {
  const std::string base = tmp_base("grammar");
  remove_segments(base);
  DesignService svc(2);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main")).ok);
  Response r = svc.call(make(
      RequestType::kJournal, "main",
      base + " group-commit batch 8 delay-us 100 segment 4096"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("fsync group-commit"), std::string::npos) << r.text;

  const persist::Journal::Options& cfg =
      svc.sessions().find("main")->journal()->options();
  EXPECT_EQ(cfg.fsync, persist::FsyncPolicy::kGroupCommit);
  EXPECT_EQ(cfg.group_max_batch_records, 8u);
  EXPECT_EQ(cfg.group_max_delay_us, 100u);
  EXPECT_EQ(cfg.segment_bytes, 4096u);

  // The knobs travel through the checkpoint header verbatim...
  persist::CheckpointMeta meta;
  ASSERT_TRUE(persist::parse_checkpoint_header(
      slurp(persist::checkpoint_path(base)), &meta));
  EXPECT_NE(meta.options.find("fsync group-commit batch 8 delay-us 100"),
            std::string::npos)
      << meta.options;
  EXPECT_NE(meta.options.find("segment 4096"), std::string::npos)
      << meta.options;

  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "main", kPipeline)).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kClose, "main")).ok);

  // ...and recovery reopens the journal with the same configuration.
  DesignService svc2(2);
  r = svc2.call(make(RequestType::kRecover, "main", base));
  ASSERT_TRUE(r.ok) << r.error;
  const persist::Journal::Options& rcfg =
      svc2.sessions().find("main")->journal()->options();
  EXPECT_EQ(rcfg.fsync, persist::FsyncPolicy::kGroupCommit);
  EXPECT_EQ(rcfg.group_max_batch_records, 8u);
  EXPECT_EQ(rcfg.group_max_delay_us, 100u);
  EXPECT_EQ(rcfg.segment_bytes, 4096u);
  r = svc2.call(make(RequestType::kQuery, "main", "stats"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("fsync group-commit"), std::string::npos) << r.text;
}

TEST(GroupCommitServiceTest, UnknownJournalOptionIsRejected) {
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main")).ok);
  Response r = svc.call(make(RequestType::kJournal, "main",
                             tmp_base("badopt") + " group-commit turbo"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown journal option 'turbo'"), std::string::npos)
      << r.error;
}

// Satellite: a corrupt fsync word in the checkpoint header must fail
// recovery loudly — silently defaulting would change the durability
// contract behind the operator's back (the old code discarded the parse
// result).
TEST(GroupCommitServiceTest, CorruptFsyncHeaderFailsRecovery) {
  const std::string base = tmp_base("badheader");
  remove_segments(base);
  {
    DesignService svc(1);
    ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main")).ok);
    ASSERT_TRUE(
        svc.call(make(RequestType::kJournal, "main", base + " none")).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kClose, "main")).ok);
  }
  const std::string ckpt_path = persist::checkpoint_path(base);
  std::string ckpt = slurp(ckpt_path);
  const std::size_t at = ckpt.find("fsync none");
  ASSERT_NE(at, std::string::npos) << ckpt;
  ckpt.replace(at, 10, "fsync nope");
  spit(ckpt_path, ckpt);

  DesignService svc(1);
  Response r = svc.call(make(RequestType::kRecover, "main", base));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown fsync policy 'nope'"), std::string::npos)
      << r.error;
}

// The header's open words are read by `open`'s own parser, so an unknown
// one fails recovery instead of being skipped.
TEST(GroupCommitServiceTest, CorruptOpenOptionHeaderFailsRecovery) {
  const std::string base = tmp_base("badopen");
  remove_segments(base);
  {
    DesignService svc(1);
    ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main")).ok);
    ASSERT_TRUE(
        svc.call(make(RequestType::kJournal, "main", base + " none")).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kClose, "main")).ok);
  }
  const std::string ckpt_path = persist::checkpoint_path(base);
  std::string ckpt = slurp(ckpt_path);
  const std::size_t at = ckpt.find("options fsync none");
  ASSERT_NE(at, std::string::npos) << ckpt;
  ckpt.replace(at, 7, "options metrix");
  spit(ckpt_path, ckpt);

  DesignService svc(1);
  Response r = svc.call(make(RequestType::kRecover, "main", base));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown open option 'metrix'"), std::string::npos)
      << r.error;
  EXPECT_EQ(svc.sessions().find("main"), nullptr);
}

TEST(GroupCommitServiceTest, DeadGroupJournalDegradesWithOneFaultAnomaly) {
  const std::string base = tmp_base("dead");
  remove_segments(base);
  DesignService svc(1);
  svc.telemetry().set_enabled(true);
  svc.telemetry().arm_flight(tmp_base("dead_flight"), 0);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main")).ok);
  ASSERT_TRUE(
      svc.call(make(RequestType::kJournal, "main", base + " group-commit")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "main", kPipeline)).ok);
  const std::uint64_t anomalies_before = svc.telemetry().anomalies();
  svc.sessions().find("main")->journal()->set_fail_fsync_after(0);

  // Two failing mutations: both degrade with the WARNING, but only the
  // request whose flush killed the journal is the anomaly.
  Response r =
      svc.call(assign("main", {{"PIPE/s0.delay(in->out)", 50e-9}}));
  ASSERT_TRUE(r.ok) << r.error;  // the in-memory session keeps serving
  EXPECT_NE(r.text.find("journal write failed"), std::string::npos) << r.text;
  r = svc.call(assign("main", {{"PIPE/s1.delay(in->out)", 60e-9}}));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("journal write failed"), std::string::npos) << r.text;
  EXPECT_EQ(svc.telemetry().anomalies(), anomalies_before + 1)
      << "journal death must be reported exactly once";
  EXPECT_EQ(svc.telemetry().last_dump_reason(), "journal-dead");

  r = svc.call(make(RequestType::kCheckpoint, "main"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("dead"), std::string::npos) << r.error;
}

TEST(GroupCommitServiceTest, LatencyTableShowsFlushWaitPhase) {
  const std::string base = tmp_base("latency");
  remove_segments(base);
  DesignService svc(1);
  svc.telemetry().set_enabled(true);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main")).ok);
  ASSERT_TRUE(
      svc.call(make(RequestType::kJournal, "main", base + " group-commit")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "main", kPipeline)).ok);
  ASSERT_TRUE(
      svc.call(assign("main", {{"PIPE/s0.delay(in->out)", 50e-9}})).ok);
  ServiceFrontEnd fe(svc);
  const std::string table = fe.execute("stats --latency");
  EXPECT_NE(table.find("flush_wait"), std::string::npos) << table;
}

// The tentpole's durability proof: drive a journaled group-commit session
// through a scripted history, then crash at every flush boundary and at
// torn offsets inside every record, recover, and require the rebuilt save
// image to be byte-identical to the snapshot at that point of history.
// Requests are submitted serially, so every record is its own flush and
// record boundaries ARE flush boundaries.
TEST(GroupCommitServiceTest, CrashSoakAtEveryFlushBoundary) {
  const std::string base = tmp_base("soak");
  remove_segments(base);
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kJournal, "main",
                            base + " group-commit batch 16 delay-us 50"))
                  .ok);

  std::vector<std::string> images;  // images[i]: state after i-th mutation
  images.push_back(save_image(svc, "main"));
  const auto mutate = [&](const Request& r, bool expect_violation) {
    const Response resp = svc.call(r);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.violation, expect_violation);
    images.push_back(save_image(svc, "main"));
  };
  mutate(make(RequestType::kLoad, "main", kPipeline), false);
  mutate(assign("main", {{"PIPE/s0.delay(in->out)", 50e-9}}), false);
  mutate(assign("main", {{"PIPE/s1.delay(in->out)", 40e-9}}), false);
  {
    Request r;
    r.type = RequestType::kBatchAssign;
    r.session = "main";
    r.assignments = {{"PIPE/s0.delay(in->out)", 90e-9},
                     {"PIPE/s1.delay(in->out)", 90e-9}};
    mutate(r, true);  // 180 ns > 160 ns spec: restores, must re-derive
  }
  mutate(make(RequestType::kEdit, "main", "cell EXTRA"), false);
  mutate(assign("main", {{"PIPE/s0.delay(in->out)", 70e-9}}), false);
  const std::size_t n_mut = images.size() - 1;
  ASSERT_TRUE(svc.call(make(RequestType::kClose, "main")).ok);

  const std::string journal_bytes = slurp(persist::journal_path(base));
  const std::string ckpt_bytes = slurp(persist::checkpoint_path(base));
  const persist::JournalScan scan =
      persist::scan_journal(persist::journal_path(base));
  ASSERT_TRUE(scan.ok()) << scan.error;
  ASSERT_EQ(scan.records.size(), n_mut + 2);  // open + mutations + close
  std::vector<std::size_t> ends;
  std::size_t off = 0;
  for (const persist::JournalRecord& rec : scan.records) {
    off += persist::encode_record(rec).size();
    ends.push_back(off);
  }
  ASSERT_EQ(off, journal_bytes.size());

  std::set<std::size_t> cuts = {0};
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    const std::size_t len = end - begin;
    cuts.insert(begin + 1);
    cuts.insert(begin + len / 2);
    cuts.insert(end - 1);
    cuts.insert(end);
    begin = end;
  }

  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("crash at byte " + std::to_string(cut) + " of " +
                 std::to_string(journal_bytes.size()));
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
    remove_segments(crash_base);
  }
}

// Flush-count crashes: kill the journal on its n-th flush for every n,
// recover from whatever reached the file, and require the image the scan's
// mutation count predicts — the oracle is independent of WHICH requests a
// nondeterministic batch happened to cover.
TEST(GroupCommitServiceTest, CrashSoakAtEveryFlushCount) {
  for (int n = 0; n < 6; ++n) {
    SCOPED_TRACE("journal dies on flush " + std::to_string(n + 1));
    const std::string base = tmp_base("fsoak" + std::to_string(n));
    remove_segments(base);
    ::setenv("STEMCP_JOURNAL_CRASH_AFTER", ("flush:" + std::to_string(n)).c_str(),
             1);
    DesignService svc(1);
    ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main")).ok);
    const Response jr = svc.call(make(RequestType::kJournal, "main",
                                      base + " group-commit batch 16"));
    ::unsetenv("STEMCP_JOURNAL_CRASH_AFTER");
    std::vector<std::string> images;
    std::size_t done = 0;
    if (jr.ok) {
      images.push_back(save_image(svc, "main"));
      const Request muts[] = {
          make(RequestType::kLoad, "main", kPipeline),
          assign("main", {{"PIPE/s0.delay(in->out)", 50e-9}}),
          assign("main", {{"PIPE/s1.delay(in->out)", 40e-9}}),
          make(RequestType::kEdit, "main", "cell EXTRA"),
      };
      for (const Request& m : muts) {
        const Response resp = svc.call(m);
        ASSERT_TRUE(resp.ok) << resp.error;
        images.push_back(save_image(svc, "main"));
        ++done;
      }
      ASSERT_TRUE(svc.call(make(RequestType::kClose, "main")).ok);
    }
    if (!jr.ok) continue;  // the attach itself died; nothing durable to check

    // Oracle: however the flushes fell, recovery must rebuild exactly the
    // state after the LAST mutation record that reached the file.
    const persist::JournalScan scan =
        persist::scan_journal_segments(persist::journal_path(base));
    ASSERT_TRUE(scan.ok()) << scan.error;
    std::size_t mut_records = 0;
    for (const persist::JournalRecord& rec : scan.records) {
      if (rec.line.rfind("open ", 0) != 0 && rec.line.rfind("close ", 0) != 0) {
        ++mut_records;
      }
    }
    ASSERT_LE(mut_records, done);
    DesignService rec_svc(1);
    const Response r = rec_svc.call(make(RequestType::kRecover, "main", base));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(save_image(rec_svc, "main"), images[mut_records]);
    remove_segments(base);
  }
}

// Segmented journals recover through the parallel segment scan, per shard,
// rebuilding byte-identical state — two sessions on a 2-shard service, each
// rolling several sealed segments.
TEST(GroupCommitServiceTest, SegmentedMultiShardRecovery) {
  const std::string root = testing::TempDir() + "stemcp_gc_service_shards";
  DesignService::Config cfg;
  cfg.workers_per_shard = 2;
  cfg.shards = 2;
  cfg.journal_root = root;
  std::vector<std::string> before(2);
  {
    DesignService svc(cfg);
    const char* names[] = {"alpha", "bravo"};
    for (const char* name : names) {
      ASSERT_TRUE(svc.call(make(RequestType::kOpen, name)).ok);
      ASSERT_TRUE(svc.call(make(RequestType::kJournal, name,
                                std::string(name) +
                                    "_db group-commit segment 256"))
                      .ok);
      ASSERT_TRUE(svc.call(make(RequestType::kLoad, name, kPipeline)).ok);
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(
            svc.call(assign(name, {{"PIPE/s0.delay(in->out)", 40e-9 + i * 1e-9}}))
                .ok);
      }
      // The tiny threshold must have rolled sealed segments.
      EXPECT_GE(svc.sessions().find(name)->journal()->sealed_segments(), 1u)
          << name;
    }
    before[0] = save_image(svc, "alpha");
    before[1] = save_image(svc, "bravo");
    ASSERT_TRUE(svc.call(make(RequestType::kClose, "alpha")).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kClose, "bravo")).ok);
  }
  DesignService svc2(cfg);
  Response r = svc2.call(make(RequestType::kRecover, "alpha", "alpha_db"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("0 outcome mismatch(es)"), std::string::npos) << r.text;
  r = svc2.call(make(RequestType::kRecover, "bravo", "bravo_db"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(save_image(svc2, "alpha"), before[0]);
  EXPECT_EQ(save_image(svc2, "bravo"), before[1]);
  // Both recovered sessions keep journaling with segmentation intact.
  EXPECT_EQ(svc2.sessions().find("alpha")->journal()->options().segment_bytes,
            256u);
}

// Many client threads hammer one group-commit session: every ticket must
// complete, the responses must stay clean, and the closed log must hold
// every record in exact seq order.  This is the TSan lane's target for the
// flusher/caller/metrics-drain interplay (no setenv here — TSan races on
// the environment otherwise).
TEST(GroupCommitHammerTest, ConcurrentMutationsAllDurableInSeqOrder) {
  const std::string base = tmp_base("hammer");
  remove_segments(base);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  {
    DesignService svc(4);
    svc.telemetry().set_enabled(true);
    ASSERT_TRUE(svc.call(make(RequestType::kOpen, "main", "metrics")).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kJournal, "main",
                              base + " group-commit batch 32 delay-us 100"))
                    .ok);
    ASSERT_TRUE(svc.call(make(RequestType::kLoad, "main", kPipeline)).ok);
    std::atomic<int> clean{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const Response resp = svc.call(assign(
              "main", {{t % 2 == 0 ? "PIPE/s0.delay(in->out)"
                                   : "PIPE/s1.delay(in->out)",
                        30e-9 + i * 1e-10}}));
          if (resp.ok && resp.text.find("WARNING") == std::string::npos) {
            clean.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(clean.load(), kThreads * kPerThread);
    ASSERT_TRUE(svc.call(make(RequestType::kClose, "main")).ok);
  }
  const persist::JournalScan scan =
      persist::scan_journal(persist::journal_path(base));
  ASSERT_TRUE(scan.ok()) << scan.error;
  // open + load + assigns + close, seq exactly contiguous.
  ASSERT_EQ(scan.records.size(),
            static_cast<std::size_t>(kThreads * kPerThread + 3));
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(scan.records[i].seq, i + 1);
  }
}

}  // namespace
}  // namespace stemcp::service
