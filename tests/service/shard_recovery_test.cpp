// Crash-soak for the sharded journal namespace (ISSUE 7): kill the service
// at record boundaries in TWO shards' journals simultaneously, recover both
// in parallel (one recover in flight per shard), and require each shard's
// rebuilt session to be byte-identical to its pre-crash snapshot — plus the
// isolation property that a torn or corrupt journal in one shard never
// blocks recovery in another.  Extends the single-session crash soak in
// persistence_test.cpp to the per-shard <root>/shard-<i>/ layout.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "service/design_service.h"

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

std::string tmp_root(const std::string& name) {
  return testing::TempDir() + "stemcp_shard_recovery_" + name;
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

std::string name_on_shard(const ShardedSessionManager& mgr, std::size_t shard,
                          const std::string& stem) {
  for (int i = 0;; ++i) {
    std::string n = stem + std::to_string(i);
    if (mgr.shard_of(n) == shard) return n;
  }
}

/// One journaled session's crash-soak material: the resolved per-shard base,
/// the raw journal/checkpoint bytes, per-record end offsets, and the save
/// image after every mutation (snapshots[k] = state after k mutations).
struct ShardLog {
  std::string name;
  std::string base;  // <root>/shard-<i>/<name>
  std::string journal_bytes;
  std::string ckpt_bytes;
  std::vector<std::size_t> ends;
  std::vector<std::string> snapshots;
};

/// Which snapshot must come back when the journal is cut to `bytes`:
/// complete surviving records = open marker + mutations, so k complete
/// records mean k-1 mutations (clamped at zero).
const std::string& expected_image(const ShardLog& log, std::size_t bytes) {
  const std::size_t complete = static_cast<std::size_t>(std::count_if(
      log.ends.begin(), log.ends.end(),
      [&](std::size_t e) { return e <= bytes; }));
  return log.snapshots[complete == 0 ? 0 : complete - 1];
}

/// Drive `name` through journal attach + a deterministic mutation script on
/// `svc`, snapshotting after every mutation, then capture the on-disk bytes
/// and record extents.
ShardLog build_shard_log(DesignService& svc, const std::string& root,
                         const std::string& name, double delay_bias) {
  ShardLog log;
  log.name = name;
  log.base = root + "/shard-" +
             std::to_string(svc.sessions().shard_of(name)) + "/" + name;
  EXPECT_TRUE(svc.call(make(RequestType::kOpen, name)).ok);
  EXPECT_TRUE(svc.call(make(RequestType::kJournal, name, name + " none")).ok);
  log.snapshots.push_back(save_image(svc, name));

  const auto mutate = [&](const Request& r) {
    const Response resp = svc.call(r);
    EXPECT_TRUE(resp.ok) << resp.error;
    log.snapshots.push_back(save_image(svc, name));
  };
  mutate(make(RequestType::kLoad, name, kPipeline));
  mutate(assign(RequestType::kAssign, name,
                {{"PIPE/s0.delay(in->out)", 50e-9 + delay_bias}}));
  mutate(assign(RequestType::kAssign, name,
                {{"PIPE/s1.delay(in->out)", 40e-9 + delay_bias}}));
  // A violating batch (s0+s1 > 160 ns): restores everything, and the
  // restore must re-derive on replay.
  mutate(assign(RequestType::kBatchAssign, name,
                {{"PIPE/s0.delay(in->out)", 90e-9 + delay_bias},
                 {"PIPE/s1.delay(in->out)", 90e-9 + delay_bias}}));
  mutate(make(RequestType::kEdit, name, "cell EXTRA"));
  mutate(assign(RequestType::kBatchAssign, name,
                {{"PIPE/s0.delay(in->out)", 70e-9 + delay_bias},
                 {"PIPE/s1.delay(in->out)", 60e-9 + delay_bias}}));

  // Crash snapshot: the on-disk bytes as they stand mid-run (no close
  // marker), plus each record's byte extent via the exact re-encode.
  log.journal_bytes = slurp(persist::journal_path(log.base));
  log.ckpt_bytes = slurp(persist::checkpoint_path(log.base));
  const persist::JournalScan scan =
      persist::scan_journal(persist::journal_path(log.base));
  EXPECT_TRUE(scan.ok()) << scan.error;
  EXPECT_EQ(scan.records.size(), log.snapshots.size());  // open + mutations
  std::size_t off = 0;
  for (const persist::JournalRecord& rec : scan.records) {
    off += persist::encode_record(rec).size();
    log.ends.push_back(off);
  }
  EXPECT_EQ(off, log.journal_bytes.size());
  return log;
}

/// Install the cut journal + checkpoint for `log` under the recovery
/// service's shard directory.
void install_cut(const ShardLog& log, const std::string& recovery_root,
                 std::size_t shard, std::size_t bytes) {
  const std::string base =
      recovery_root + "/shard-" + std::to_string(shard) + "/" + log.name;
  spit(persist::checkpoint_path(base), log.ckpt_bytes);
  spit(persist::journal_path(base), log.journal_bytes.substr(0, bytes));
}

// Kill both shards' journals at paired record boundaries (as shard A keeps
// more, shard B keeps fewer — every combination of "shards crashed at
// different points in their own logs"), then recover BOTH in parallel on a
// fresh 2-shard service and require byte-identical per-shard state.
TEST(ShardRecoveryTest, ParallelCrashRecoveryAcrossTwoShards) {
  const std::string root = tmp_root("pair");
  std::vector<ShardLog> logs;
  {
    DesignService svc(DesignService::Config{1, 2, root});
    const std::string a = name_on_shard(svc.sessions(), 0, "a");
    const std::string b = name_on_shard(svc.sessions(), 1, "b");
    logs.push_back(build_shard_log(svc, root, a, 0.0));
    logs.push_back(build_shard_log(svc, root, b, 3e-9));
    // The service dies here with both journals open: the crash.
  }
  ASSERT_EQ(logs[0].ends.size(), logs[1].ends.size());
  const std::size_t n_rec = logs[0].ends.size();

  const std::string rroot = tmp_root("pair_rec");
  int checked = 0;
  for (std::size_t k = 0; k <= n_rec; ++k) {
    // Record-boundary cuts: A keeps k records, B keeps n_rec - k.
    const std::size_t cut_a = k == 0 ? 0 : logs[0].ends[k - 1];
    const std::size_t keep_b = n_rec - k;
    const std::size_t cut_b = keep_b == 0 ? 0 : logs[1].ends[keep_b - 1];
    SCOPED_TRACE("A keeps " + std::to_string(k) + " record(s), B keeps " +
                 std::to_string(keep_b));

    DesignService rec(DesignService::Config{1, 2, rroot});
    install_cut(logs[0], rroot, rec.sessions().shard_of(logs[0].name), cut_a);
    install_cut(logs[1], rroot, rec.sessions().shard_of(logs[1].name), cut_b);

    // Both recovers in flight at once — one per shard, replayed in
    // parallel by the shards' own workers.
    std::future<Response> fa =
        rec.submit(make(RequestType::kRecover, logs[0].name, logs[0].name));
    std::future<Response> fb =
        rec.submit(make(RequestType::kRecover, logs[1].name, logs[1].name));
    const Response ra = fa.get();
    const Response rb = fb.get();
    ASSERT_TRUE(ra.ok) << ra.error;
    ASSERT_TRUE(rb.ok) << rb.error;
    EXPECT_NE(ra.text.find("0 outcome mismatch(es)"), std::string::npos)
        << ra.text;
    EXPECT_NE(rb.text.find("0 outcome mismatch(es)"), std::string::npos)
        << rb.text;
    EXPECT_EQ(save_image(rec, logs[0].name), expected_image(logs[0], cut_a));
    EXPECT_EQ(save_image(rec, logs[1].name), expected_image(logs[1], cut_b));
    ++checked;
  }
  EXPECT_GE(checked, 7) << "soak did not exercise enough paired crash points";
}

// Shard isolation under damage: shard A's journal is cut mid-record (torn
// tail) while shard B's checkpoint is garbage.  A's recovery — in flight
// concurrently with B's — must drop the torn tail and land on the last
// complete record's state; B's must fail cleanly and leave the name free.
TEST(ShardRecoveryTest, TornShardRecoversWhileOtherShardIsCorrupt) {
  const std::string root = tmp_root("torn");
  std::vector<ShardLog> logs;
  {
    DesignService svc(DesignService::Config{1, 2, root});
    const std::string a = name_on_shard(svc.sessions(), 0, "a");
    const std::string b = name_on_shard(svc.sessions(), 1, "b");
    logs.push_back(build_shard_log(svc, root, a, 0.0));
    logs.push_back(build_shard_log(svc, root, b, 3e-9));
  }

  const std::string rroot = tmp_root("torn_rec");
  DesignService rec(DesignService::Config{1, 2, rroot});
  // A: torn mid-way through its fourth record.
  const std::size_t torn_cut = logs[0].ends[2] + (logs[0].ends[3] -
                                                  logs[0].ends[2]) / 2;
  install_cut(logs[0], rroot, rec.sessions().shard_of(logs[0].name),
              torn_cut);
  // B: full journal but a corrupt checkpoint.
  const std::size_t shard_b = rec.sessions().shard_of(logs[1].name);
  install_cut(logs[1], rroot, shard_b, logs[1].journal_bytes.size());
  spit(persist::checkpoint_path(rroot + "/shard-" + std::to_string(shard_b) +
                                "/" + logs[1].name),
       "this is not a checkpoint\n");

  std::future<Response> fa =
      rec.submit(make(RequestType::kRecover, logs[0].name, logs[0].name));
  std::future<Response> fb =
      rec.submit(make(RequestType::kRecover, logs[1].name, logs[1].name));
  const Response ra = fa.get();
  const Response rb = fb.get();

  ASSERT_TRUE(ra.ok) << ra.error;
  EXPECT_NE(ra.text.find("0 outcome mismatch(es)"), std::string::npos)
      << ra.text;
  EXPECT_EQ(save_image(rec, logs[0].name), expected_image(logs[0], torn_cut));

  EXPECT_FALSE(rb.ok);
  EXPECT_NE(rb.error.find("recover failed"), std::string::npos) << rb.error;
  // The failed recovery left no half-built session behind: the name is
  // free, and the shard keeps serving.
  EXPECT_EQ(rec.sessions().find(logs[1].name), nullptr);
  EXPECT_TRUE(rec.call(make(RequestType::kOpen, logs[1].name)).ok);
}

// A recover publishes its session only after the replay, so an `open` of the
// same name that lands meanwhile wins: the recover answers "already exists"
// and the opened session is untouched.  Two workers on one shard; the
// recover is held in its checkpoint's open on a FIFO while the other worker
// serves the open, then released with a valid checkpoint of another design.
TEST(ShardRecoveryTest, OpenDuringRecoverWinsTheName) {
  const std::string dir = tmp_root("open_wins");
  std::string error;
  ASSERT_TRUE(persist::ensure_directories(dir, &error)) << error;
  const std::string base = dir + "/held";
  const std::string fifo = persist::checkpoint_path(base);
  ::unlink(fifo.c_str());
  ::unlink(persist::journal_path(base).c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  DesignService svc(DesignService::Config{2, 1, {}});
  std::future<Response> recovering =
      svc.submit(make(RequestType::kRecover, "held", base));
  // A non-blocking writer open succeeds only once a reader has the FIFO
  // open: then the recover is past its own name check and held.
  int fd = -1;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK)) < 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fd, 0) << "the recover never opened its checkpoint";

  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "held")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "held", kPipeline)).ok);
  const std::string opened = save_image(svc, "held");

  persist::CheckpointMeta meta;
  meta.session = "held";
  const std::string ckpt = persist::encode_checkpoint_header(meta) +
                           "cell OTHER\n  signal in input\nend\n";
  EXPECT_EQ(::write(fd, ckpt.data(), ckpt.size()),
            static_cast<ssize_t>(ckpt.size()));
  ::close(fd);
  const Response r = recovering.get();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("already exists"), std::string::npos) << r.error;
  EXPECT_EQ(save_image(svc, "held"), opened);
  EXPECT_EQ(svc.sessions().size(), 1u);
}

}  // namespace
}  // namespace stemcp::service
