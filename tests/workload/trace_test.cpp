// Trace format + scenario spec tests (ISSUE 10, docs/WORKLOAD.md): strict
// line codec, journal-style torn-tail tolerance vs mid-file corruption
// rejection, the synthesize→write→parse→write byte-identity property, and
// the scenario parser's strictness.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "service/design_service.h"
#include "service/protocol.h"
#include "workload/synth.h"
#include "workload/trace.h"

namespace {

using namespace stemcp;
using workload::Scenario;
using workload::TraceRecord;
using workload::TraceScan;
using workload::TraceWriter;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "stemcp_trace_" + name;
}

std::string read_all(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

void write_all(const std::string& path, const std::string& contents) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << contents;
}

std::string encode(std::uint64_t offset_ns, const std::string& line) {
  std::string out;
  std::string err;
  EXPECT_TRUE(workload::encode_trace_line(offset_ns, line, &out, &err)) << err;
  return out;
}

TEST(TraceCodecTest, EncodeDecodeRoundTripsEveryVerb) {
  const char* lines[] = {
      "open s metrics trace",
      "load s text cell A\\n  signal in input\\nend\\n",
      "save s",
      "assign s PIPE/s0.delay(in->out) 1.0000000000000001e-09",
      "batch-assign s A.x(a->b) 1 B.y(c->d) 2.5",
      "edit s leaf-delay STAGE in out 4e-08",
      "query s PIPE.delay(in->out)",
      "report s PIPE",
      "journal s /tmp/base every-record",
      "checkpoint s",
      "recover s /tmp/base",
      "select s ALU limit 4",
      "select-stats s ALU",
      "close s",
  };
  std::uint64_t offset = 0;
  for (const char* line : lines) {
    const std::string encoded = encode(offset, line);
    ASSERT_EQ(encoded.back(), '\n');
    TraceRecord rec;
    std::string err;
    ASSERT_TRUE(workload::decode_trace_line(
        std::string_view(encoded).substr(0, encoded.size() - 1), &rec, &err))
        << line << ": " << err;
    EXPECT_EQ(rec.offset_ns, offset);
    EXPECT_EQ(rec.line, line);
    // Re-encoding the decoded record reproduces the bytes exactly.
    std::string again;
    ASSERT_TRUE(workload::encode_trace_line(rec.offset_ns, rec.line, &again,
                                            &err)) << err;
    EXPECT_EQ(again, encoded);
    offset += 1000;
  }
}

TEST(TraceCodecTest, RenderParseRoundTripsTypedRequests) {
  service::Request r;
  r.type = service::RequestType::kBatchAssign;
  r.session = "sess_1";
  r.assignments.push_back({"PIPE/s0.delay(in->out)", 1e-9});
  r.assignments.push_back({"PIPE/s1.delay(in->out)", 0.30000000000000004});
  std::string line;
  std::string err;
  ASSERT_TRUE(service::ServiceFrontEnd::render(r, &line, &err)) << err;
  service::Request back;
  ASSERT_TRUE(service::ServiceFrontEnd::parse(line, &back, &err)) << err;
  EXPECT_EQ(back.type, r.type);
  EXPECT_EQ(back.session, r.session);
  ASSERT_EQ(back.assignments.size(), r.assignments.size());
  for (std::size_t i = 0; i < r.assignments.size(); ++i) {
    EXPECT_EQ(back.assignments[i].variable, r.assignments[i].variable);
    EXPECT_EQ(back.assignments[i].value, r.assignments[i].value);
  }
  // And the re-render is byte-identical (%.17g round-trips doubles).
  std::string again;
  ASSERT_TRUE(service::ServiceFrontEnd::render(back, &again, &err)) << err;
  EXPECT_EQ(again, line);
}

TEST(TraceCodecTest, LoadTextWithNewlinesRoundTrips) {
  service::Request r;
  r.type = service::RequestType::kLoad;
  r.session = "s";
  // Backslashes round-trip too, including one before an 'n'.
  r.text = "cell A\n  signal in input\nend # a \\ and a \\n\n";
  std::string line;
  ASSERT_TRUE(service::ServiceFrontEnd::render(r, &line));
  service::Request back;
  std::string err;
  ASSERT_TRUE(service::ServiceFrontEnd::parse(line, &back, &err)) << err;
  EXPECT_EQ(back.text, r.text);
}

TEST(TraceCodecTest, UnrenderableRequestsAreRejected) {
  service::Request r;
  r.type = service::RequestType::kQuery;
  r.session = "has space";
  std::string line, err;
  EXPECT_FALSE(service::ServiceFrontEnd::render(r, &line, &err));
  r.session = "s";
  r.type = service::RequestType::kEdit;
  r.text = "two\nlines";
  line.clear();
  EXPECT_FALSE(service::ServiceFrontEnd::render(r, &line, &err));
  r.type = service::RequestType::kJournal;
  r.text = "";  // journal needs a base
  line.clear();
  EXPECT_FALSE(service::ServiceFrontEnd::render(r, &line, &err));
}

TEST(TraceCodecTest, DecodeRejectsBadFraming) {
  TraceRecord rec;
  std::string err;
  EXPECT_FALSE(workload::decode_trace_line("J1 00000000 0 close s", &rec, &err));
  EXPECT_NE(err.find("magic"), std::string::npos);
  EXPECT_FALSE(workload::decode_trace_line("T1 0000000 0 close s", &rec, &err));
  EXPECT_FALSE(workload::decode_trace_line("T1 0000000Z 0 close s", &rec, &err));
  // Valid CRC but garbage request line.
  std::string enc;
  ASSERT_TRUE(workload::encode_trace_line(0, "frobnicate s", &enc, &err));
  EXPECT_FALSE(workload::decode_trace_line(
      std::string_view(enc).substr(0, enc.size() - 1), &rec, &err));
  EXPECT_NE(err.find("bad request line"), std::string::npos);
  // CRC mismatch: flip one payload byte.
  enc.clear();
  ASSERT_TRUE(workload::encode_trace_line(0, "close s", &enc, &err));
  enc[enc.size() - 2] = 'x';
  EXPECT_FALSE(workload::decode_trace_line(
      std::string_view(enc).substr(0, enc.size() - 1), &rec, &err));
  EXPECT_NE(err.find("CRC mismatch"), std::string::npos);
}

TEST(TraceCodecTest, LoadFileFormIsRejected) {
  std::string enc, err;
  ASSERT_TRUE(workload::encode_trace_line(0, "load s file /etc/hostname",
                                          &enc, &err));
  TraceRecord rec;
  EXPECT_FALSE(workload::decode_trace_line(
      std::string_view(enc).substr(0, enc.size() - 1), &rec, &err));
  EXPECT_NE(err.find("not allowed in traces"), std::string::npos) << err;
}

TEST(TraceScanTest, TornFinalLineIsTolerated) {
  const std::string path = temp_path("torn");
  write_all(path, encode(0, "open s") + encode(10, "close s"));
  const std::string full = read_all(path);
  // Truncate mid-final-line: every cut point inside the last record must
  // scan clean with exactly the first record surviving.
  const std::size_t first_len = encode(0, "open s").size();
  for (std::size_t cut = first_len + 1; cut < full.size(); ++cut) {
    write_all(path, full.substr(0, cut));
    const TraceScan scan = workload::scan_trace_file(path);
    ASSERT_TRUE(scan.error.empty()) << "cut=" << cut << ": " << scan.error;
    EXPECT_TRUE(scan.torn_tail) << "cut=" << cut;
    EXPECT_EQ(scan.records.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(scan.bytes_scanned, first_len);
  }
  std::remove(path.c_str());
}

TEST(TraceScanTest, CorruptFinalLineWithNewlineIsTolerated) {
  // A bad record as the very last line (even '\n'-terminated) could be a
  // torn write whose tail included newline garbage — journal rule.
  const std::string path = temp_path("torn_nl");
  std::string contents = encode(0, "open s");
  contents += "T1 deadbeef 20 close s\n";  // wrong CRC
  write_all(path, contents);
  const TraceScan scan = workload::scan_trace_file(path);
  EXPECT_TRUE(scan.error.empty()) << scan.error;
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 1u);
  std::remove(path.c_str());
}

TEST(TraceScanTest, MidFileCorruptionIsRejected) {
  const std::string path = temp_path("corrupt");
  const std::string first = encode(0, "open s");
  write_all(path, first + "T1 deadbeef 10 close s\n" + encode(20, "close s"));
  const TraceScan scan = workload::scan_trace_file(path);
  ASSERT_FALSE(scan.error.empty());
  EXPECT_NE(scan.error.find("trace corrupt at byte " +
                            std::to_string(first.size())),
            std::string::npos)
      << scan.error;
  std::remove(path.c_str());
}

TEST(TraceScanTest, FlippedPayloadByteMidFileIsRejected) {
  const std::string path = temp_path("flip");
  std::string contents =
      encode(0, "open s") + encode(10, "assign s A.x(a->b) 1") +
      encode(20, "close s");
  // Flip a byte inside the middle record's payload.
  const std::size_t mid = encode(0, "open s").size() + 20;
  contents[mid] ^= 0x20;
  write_all(path, contents);
  const TraceScan scan = workload::scan_trace_file(path);
  EXPECT_FALSE(scan.error.empty());
  std::remove(path.c_str());
}

TEST(TraceScanTest, DisorderedOffsetsAreRejectedEvenAtTheTail) {
  // CRC-valid records cannot be torn writes, so time going backwards is
  // corruption no matter where it sits — including the final line.
  const std::string path = temp_path("disorder");
  write_all(path, encode(100, "open s") + encode(50, "close s"));
  const TraceScan scan = workload::scan_trace_file(path);
  ASSERT_FALSE(scan.error.empty());
  EXPECT_NE(scan.error.find("disordered"), std::string::npos) << scan.error;
  std::remove(path.c_str());
}

TEST(TraceScanTest, WriterEnforcesMonotoneOffsets) {
  const std::string path = temp_path("writer");
  std::string err;
  auto writer = TraceWriter::open(path, &err);
  ASSERT_NE(writer, nullptr) << err;
  ASSERT_TRUE(writer->append(100, "open s", &err)) << err;
  EXPECT_FALSE(writer->append(50, "close s", &err));
  ASSERT_TRUE(writer->append(100, "close s", &err)) << err;  // equal is fine
  ASSERT_TRUE(writer->finish(&err)) << err;
  const TraceScan scan = workload::scan_trace_file(path);
  EXPECT_TRUE(scan.error.empty()) << scan.error;
  EXPECT_EQ(scan.records.size(), 2u);
  std::remove(path.c_str());
}

// The satellite-3 property: synthesize → write → parse → write must be
// byte-identical, across scenarios that exercise zipf, burst, churn, and
// the selection mix.
TEST(TraceScanTest, SynthesizeWriteParseWriteIsByteIdentical) {
  Scenario scenarios[4];
  scenarios[0] = Scenario{};
  scenarios[0].requests = 400;
  scenarios[1].seed = 99;
  scenarios[1].sessions = 3;
  scenarios[1].zipf_skew = 2.0;
  scenarios[1].requests = 300;
  scenarios[1].churn = 0.05;
  scenarios[2].burst_on_s = 0.01;
  scenarios[2].burst_idle_s = 0.02;
  scenarios[2].burst_factor = 8.0;
  scenarios[2].requests = 500;
  scenarios[3].design = "selection";
  scenarios[3].w_select = 10;
  scenarios[3].requests = 200;
  int index = 0;
  for (const Scenario& sc : scenarios) {
    const std::string path_a = temp_path("prop_a" + std::to_string(index));
    const std::string path_b = temp_path("prop_b" + std::to_string(index));
    std::string err;
    ASSERT_TRUE(workload::synthesize_to_file(sc, path_a, &err)) << err;
    const TraceScan scan = workload::scan_trace_file(path_a);
    ASSERT_TRUE(scan.error.empty()) << scan.error;
    ASSERT_FALSE(scan.torn_tail);
    ASSERT_GE(scan.records.size(), static_cast<std::size_t>(sc.requests));
    auto writer = TraceWriter::open(path_b, &err);
    ASSERT_NE(writer, nullptr) << err;
    for (const TraceRecord& rec : scan.records) {
      ASSERT_TRUE(writer->append(rec, &err)) << err;
    }
    ASSERT_TRUE(writer->finish(&err)) << err;
    EXPECT_EQ(read_all(path_a), read_all(path_b)) << "scenario " << index;
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
    ++index;
  }
}

TEST(TraceScanTest, SynthesisIsDeterministicPerSeed) {
  Scenario sc;
  sc.requests = 300;
  sc.churn = 0.01;
  const std::string a = temp_path("det_a");
  const std::string b = temp_path("det_b");
  std::string err;
  ASSERT_TRUE(workload::synthesize_to_file(sc, a, &err)) << err;
  ASSERT_TRUE(workload::synthesize_to_file(sc, b, &err)) << err;
  EXPECT_EQ(read_all(a), read_all(b));
  sc.seed = 2;
  ASSERT_TRUE(workload::synthesize_to_file(sc, b, &err)) << err;
  EXPECT_NE(read_all(a), read_all(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(WorkloadScenarioTest, ParsesFullSpec) {
  Scenario sc;
  std::string err;
  ASSERT_TRUE(workload::parse_scenario(
      "# stemcp-scenario v1\n"
      "name storm\n"
      "seed 7\n"
      "sessions 4\n"
      "zipf-skew 1.5\n"
      "rate 1000\n"
      "requests 500\n"
      "burst 0.1 0.2 8\n"
      "# a comment\n"
      "\n"
      "mix assign 40 batch-assign 10 query 30 edit 10 select 10\n"
      "churn 0.01\n"
      "design selection\n",
      &sc, &err))
      << err;
  EXPECT_EQ(sc.name, "storm");
  EXPECT_EQ(sc.seed, 7u);
  EXPECT_EQ(sc.sessions, 4);
  EXPECT_DOUBLE_EQ(sc.zipf_skew, 1.5);
  EXPECT_DOUBLE_EQ(sc.rate_rps, 1000.0);
  EXPECT_EQ(sc.requests, 500);
  EXPECT_DOUBLE_EQ(sc.burst_on_s, 0.1);
  EXPECT_DOUBLE_EQ(sc.burst_idle_s, 0.2);
  EXPECT_DOUBLE_EQ(sc.burst_factor, 8.0);
  EXPECT_EQ(sc.w_select, 10);
  EXPECT_DOUBLE_EQ(sc.churn, 0.01);
  EXPECT_EQ(sc.design, "selection");
  // Canonical dump parses back to the same scenario.
  Scenario back;
  ASSERT_TRUE(workload::parse_scenario(workload::scenario_to_string(sc), &back,
                                       &err))
      << err;
  EXPECT_EQ(workload::scenario_to_string(back),
            workload::scenario_to_string(sc));
}

TEST(WorkloadScenarioTest, RejectsBadSpecs) {
  Scenario sc;
  std::string err;
  EXPECT_FALSE(workload::parse_scenario("name storm\n", &sc, &err));
  EXPECT_NE(err.find("header"), std::string::npos);
  EXPECT_FALSE(workload::parse_scenario(
      "# stemcp-scenario v1\nfrobnicate 3\n", &sc, &err));
  EXPECT_NE(err.find("unknown key"), std::string::npos);
  EXPECT_NE(err.find("line 2"), std::string::npos);
  EXPECT_FALSE(workload::parse_scenario(
      "# stemcp-scenario v1\nrate -5\n", &sc, &err));
  EXPECT_FALSE(workload::parse_scenario(
      "# stemcp-scenario v1\nmix assign 10 frob 5\n", &sc, &err));
  EXPECT_NE(err.find("unknown mix verb"), std::string::npos);
  EXPECT_FALSE(workload::parse_scenario(
      "# stemcp-scenario v1\nsessions 2 extra\n", &sc, &err));
  EXPECT_NE(err.find("trailing token"), std::string::npos);
  // select traffic needs the selection design.
  EXPECT_FALSE(workload::parse_scenario(
      "# stemcp-scenario v1\nmix select 10\n", &sc, &err));
  EXPECT_NE(err.find("design selection"), std::string::npos);
}

TEST(WorkloadScenarioTest, BurstPhasesShapeArrivals) {
  Scenario sc;
  sc.rate_rps = 1000;
  sc.requests = 1500;  // ~1.5 cycles: the first cycle is fully covered
  sc.burst_on_s = 0.2;
  sc.burst_idle_s = 0.2;
  sc.burst_factor = 4.0;
  const std::vector<TraceRecord> records = workload::synthesize(sc);
  // Count traffic arrivals in the on-window vs the idle window of the first
  // cycle: the burst must carry ~4x the idle rate (~800 vs ~200 here).
  std::size_t on = 0, idle = 0;
  for (const TraceRecord& rec : records) {
    if (rec.offset_ns == 0) continue;  // prologue
    const double t = static_cast<double>(rec.offset_ns) / 1e9;
    if (t < 0.2) {
      ++on;
    } else if (t < 0.4) {
      ++idle;
    }
  }
  ASSERT_GT(idle, 0u);
  EXPECT_GT(on, idle * 3) << "on=" << on << " idle=" << idle;
}

TEST(WorkloadScenarioTest, ZipfSkewConcentratesTraffic) {
  Scenario sc;
  sc.sessions = 8;
  sc.zipf_skew = 1.0;
  sc.requests = 2000;
  const std::vector<TraceRecord> records = workload::synthesize(sc);
  std::size_t w0 = 0, w7 = 0;
  for (const TraceRecord& rec : records) {
    if (rec.offset_ns == 0) continue;
    if (rec.request.session == "w0") ++w0;
    if (rec.request.session == "w7") ++w7;
  }
  // Session 0 draws weight 1 vs session 7's 1/8.
  EXPECT_GT(w0, w7 * 3) << "w0=" << w0 << " w7=" << w7;
}

// The scenarios committed under examples/traces/ must stay parseable and
// synthesizable — bench_workload_replay and the tier-1 bench gate load them.
TEST(WorkloadScenarioTest, CommittedScenariosParseAndSynthesize) {
  const char* names[] = {"mixed_storm", "select_mix"};
  for (const char* name : names) {
    const std::string path = std::string(STEMCP_SOURCE_DIR) +
                             "/examples/traces/" + name + ".scenario";
    Scenario sc;
    std::string err;
    ASSERT_TRUE(workload::load_scenario_file(path, &sc, &err))
        << path << ": " << err;
    EXPECT_EQ(sc.name, name);
    const std::vector<TraceRecord> records = workload::synthesize(sc);
    EXPECT_GE(records.size(), static_cast<std::size_t>(sc.requests));
  }
}

// The default scenario's sessions w0..w7 hash to 8 distinct shards, and to
// 2 per shard at 4, so every shard arm of bench_latency_under_load offers
// each shard the same share of sessions.
TEST(WorkloadScenarioTest, DefaultSessionsSpreadEvenlyOverShards) {
  Scenario sc;
  sc.requests = 1;
  std::vector<std::string> sessions;
  for (const TraceRecord& rec : workload::synthesize(sc)) {
    if (rec.request.type == service::RequestType::kOpen) {
      sessions.push_back(rec.request.session);
    }
  }
  ASSERT_EQ(sessions.size(), 8u);
  for (const std::uint64_t shards : {8u, 4u}) {
    std::map<std::uint64_t, std::size_t> per_shard;
    for (const std::string& s : sessions) {
      ++per_shard[service::ShardedSessionManager::hash_of(s) % shards];
    }
    EXPECT_EQ(per_shard.size(), shards);
    for (const auto& [shard, count] : per_shard) {
      EXPECT_EQ(count, sessions.size() / shards) << "shard " << shard;
    }
  }
}

TEST(WorkloadScenarioTest, ChurnEmitsLifecycleRecords) {
  Scenario sc;
  sc.requests = 1000;
  sc.churn = 0.05;
  const std::vector<TraceRecord> records = workload::synthesize(sc);
  std::size_t closes = 0;
  for (const TraceRecord& rec : records) {
    if (rec.request.type == service::RequestType::kClose) ++closes;
  }
  EXPECT_GT(closes, 10u);
}

}  // namespace
