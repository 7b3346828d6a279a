// Seeded mutation fuzzing of the one framed-line scanner (persist/framed.h)
// through both logs built on it: a J2 journal written by a real service run
// and a T1 trace synthesized from a committed scenario.  Each input takes
// byte flips, truncations at a random offset, and splices with a second
// valid file of its format, under a fixed seed.  The scanner must never
// crash, every error must name a byte offset, a truncation must never be an
// error, and the records that survive must be records of the originals, in
// order — CRC-32 catches every burst of up to 32 bits, so a flipped byte
// can only end the clean prefix early.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "service/design_service.h"
#include "workload/synth.h"
#include "workload/trace.h"

namespace stemcp {
namespace {

using service::DesignService;
using service::Request;
using service::RequestType;

constexpr std::uint64_t kSeed = 0x5EEDF00Dull;
constexpr int kMutationsPerInput = 1200;  // 400 of each kind

/// xorshift64: deterministic across platforms and runs.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

/// One scan, format-neutral: every surviving record as its re-encoded line
/// (the codecs round-trip exactly, so equal lines mean equal records).
struct Outcome {
  std::vector<std::string> records;
  bool torn_tail = false;
  std::string error;
};
using Scanner = std::function<Outcome(const std::string&)>;

Outcome scan_j2(const std::string& text) {
  const persist::JournalScan s = persist::scan_journal_text(text);
  Outcome o{{}, s.torn_tail, s.error};
  for (const persist::JournalRecord& r : s.records) {
    o.records.push_back(persist::encode_record(r));
  }
  return o;
}

Outcome scan_t1(const std::string& text) {
  const workload::TraceScan s = workload::scan_trace_text(text);
  Outcome o{{}, s.torn_tail, s.error};
  for (const workload::TraceRecord& r : s.records) {
    o.records.emplace_back();
    workload::encode_trace_line(r.offset_ns, r.line, &o.records.back());
  }
  return o;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The journal of one session driven through every journaled verb: a load
/// whose text needs both escapes, assigns, a violating batch, edits and a
/// select.  The library is workload::selection_design(): the pipeline cells
/// of pipeline_design() plus the generic adder that gives select a slot.
std::string journal_corpus(const std::string& session, double bias) {
  const std::string base =
      testing::TempDir() + "stemcp_framed_fuzz_" + session;
  {
    DesignService svc(1);
    const auto call = [&](RequestType t, std::string text,
                          std::vector<service::Assignment> as = {}) {
      const service::Response r =
          svc.call(Request{t, session, std::move(text), std::move(as)});
      EXPECT_TRUE(r.ok) << r.error;
      return r;
    };
    call(RequestType::kOpen, "");
    call(RequestType::kJournal, base + " none");
    call(RequestType::kLoad, std::string("# a \\ backslash\n") +
                                 workload::selection_design());
    call(RequestType::kAssign, "", {{"PIPE/s0.delay(in->out)", 0.2 + bias}});
    call(RequestType::kAssign, "", {{"PIPE/s1.delay(in->out)", 0.3 + bias}});
    EXPECT_TRUE(call(RequestType::kBatchAssign, "",
                     {{"PIPE/s0.delay(in->out)", 0.9},
                      {"PIPE/s1.delay(in->out)", 0.9}})
                    .violation);
    call(RequestType::kEdit, "cell EXTRA");
    call(RequestType::kEdit, "leaf-delay STAGE in out 1e-9");
    call(RequestType::kSelect, "ALU limit 4");
    call(RequestType::kClose, "");
  }
  const std::string text = slurp(persist::journal_path(base));
  std::remove(persist::journal_path(base).c_str());
  std::remove(persist::checkpoint_path(base).c_str());
  return text;
}

/// mixed_storm.scenario's mix, skew, bursts and churn, cut to 250 requests
/// so 1,200 full scans stay fast under the sanitizers.
std::string trace_corpus(std::uint64_t seed_offset) {
  workload::Scenario sc;
  std::string err;
  EXPECT_TRUE(workload::load_scenario_file(
      std::string(STEMCP_SOURCE_DIR) + "/examples/traces/mixed_storm.scenario",
      &sc, &err))
      << err;
  sc.requests = 250;
  sc.seed += seed_offset;
  std::string text;
  for (const workload::TraceRecord& r : workload::synthesize(sc)) {
    EXPECT_TRUE(workload::encode_trace_line(r.offset_ns, r.line, &text, &err))
        << err;
  }
  return text;
}

bool is_prefix(const std::vector<std::string>& got,
               const std::vector<std::string>& of) {
  return got.size() <= of.size() &&
         std::equal(got.begin(), got.end(), of.begin());
}

/// `got` is a[0..k) followed by a contiguous run of b, for some k.
bool is_splice(const std::vector<std::string>& got,
               const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
  for (std::size_t k = std::min(got.size(), a.size()) + 1; k-- > 0;) {
    if (!std::equal(got.begin(), got.begin() + k, a.begin())) continue;
    const std::size_t rest = got.size() - k;
    if (rest == 0) return true;
    for (std::size_t m = 0; m + rest <= b.size(); ++m) {
      if (std::equal(got.begin() + k, got.end(), b.begin() + m)) return true;
    }
  }
  return false;
}

void fuzz(const std::string& a, const std::string& b, const Scanner& scan) {
  const Outcome clean_a = scan(a);
  const Outcome clean_b = scan(b);
  ASSERT_TRUE(clean_a.error.empty()) << clean_a.error;
  ASSERT_TRUE(clean_b.error.empty()) << clean_b.error;
  ASSERT_FALSE(clean_a.torn_tail);
  ASSERT_GE(clean_a.records.size(), 8u);
  Rng rng{kSeed};
  for (int i = 0; i < kMutationsPerInput; ++i) {
    std::string m;
    std::string what;
    const int kind = i % 3;
    if (kind == 0) {
      m = a;
      const std::size_t at = rng.below(m.size());
      m[at] = static_cast<char>(m[at] ^ (1 + rng.below(255)));
      what = "flip at " + std::to_string(at);
    } else if (kind == 1) {
      m = a.substr(0, rng.below(a.size() + 1));
      what = "truncate to " + std::to_string(m.size());
    } else {
      const std::size_t head = rng.below(a.size() + 1);
      const std::size_t tail = rng.below(b.size() + 1);
      m = a.substr(0, head) + b.substr(tail);
      what = "splice a[0," + std::to_string(head) + ") + b[" +
             std::to_string(tail) + ",)";
    }
    SCOPED_TRACE("mutation " + std::to_string(i) + ": " + what);
    const Outcome got = scan(m);
    if (!got.error.empty()) {
      ASSERT_NE(got.error.find(" at byte "), std::string::npos) << got.error;
    }
    if (kind == 1) {
      ASSERT_TRUE(got.error.empty()) << got.error;
    }
    if (kind == 2) {
      ASSERT_TRUE(is_splice(got.records, clean_a.records, clean_b.records));
    } else {
      ASSERT_TRUE(is_prefix(got.records, clean_a.records));
    }
  }
}

std::string first_line(const std::string& text) {
  return text.substr(0, text.find('\n') + 1);
}

/// `foreign` spliced into `host` after its first line is corruption; as the
/// final line it is a torn tail.  Either way no record comes of it.
void expect_refused(const std::string& host, const std::string& foreign,
                    const Scanner& scan) {
  const Outcome clean = scan(host);
  const std::string head = first_line(host);
  const Outcome mid = scan(head + foreign + host.substr(head.size()));
  EXPECT_NE(mid.error.find("corrupt at byte " + std::to_string(head.size()) +
                           ": bad magic"),
            std::string::npos)
      << mid.error;
  EXPECT_EQ(mid.records.size(), 1u);
  const Outcome tail = scan(host + foreign);
  EXPECT_TRUE(tail.error.empty()) << tail.error;
  EXPECT_TRUE(tail.torn_tail);
  EXPECT_EQ(tail.records, clean.records);
}

TEST(FramedScanFuzzTest, JournalSurvivesSeededMutations) {
  fuzz(journal_corpus("fuzz_a", 0.0), journal_corpus("fuzz_b", 0.01),
       scan_j2);
}

TEST(FramedScanFuzzTest, TraceSurvivesSeededMutations) {
  fuzz(trace_corpus(0), trace_corpus(1), scan_t1);
}

TEST(FramedScanFuzzTest, ForeignTagLinesAreRefused) {
  const std::string journal = journal_corpus("fuzz_tags", 0.0);
  const std::string trace = trace_corpus(0);
  expect_refused(trace, first_line(journal), scan_t1);
  expect_refused(journal, first_line(trace), scan_j2);
}

}  // namespace
}  // namespace stemcp
