// Deterministic trace synthesizer: turns a small scenario spec into a
// workload trace — seeded xorshift, zipf-skewed session popularity,
// burst/idle arrival phases, a mixed request stream (assign / batch-assign /
// query / edit / select), and session churn — so macro benchmarks replay the
// identical request stream on every run.  It is the one traffic generator of
// the service benches: bench_latency_under_load replays the default
// Scenario at each arm's rate, bench_workload_replay the committed
// mixed_storm scenario.
//
// Scenario files are strict line-based key/value text:
//
//   # stemcp-scenario v1
//   name mixed_storm
//   seed 42
//   sessions 8
//   zipf-skew 1.0
//   rate 4000            # base offered rate, requests/second
//   requests 4000        # traffic records to generate (after the prologue)
//   burst 0.25 0.25 6    # on-seconds idle-seconds factor: rate*factor
//                        # during each on-window, base rate when idle
//   mix assign 50 batch-assign 20 query 20 edit 10 select 0
//   churn 0.002          # per-request probability of close+open+load
//   design pipeline      # or: selection (adds generic ADD slots for select)
//
// The first line must be exactly "# stemcp-scenario v1"; later '#' lines and
// blanks are comments; an unknown key is an error (journal-parser strictness).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/trace.h"

namespace stemcp::workload {

struct Scenario {
  std::string name = "scenario";
  std::uint64_t seed = 1;
  int sessions = 8;
  double zipf_skew = 1.0;
  double rate_rps = 2000.0;
  int requests = 2000;
  double burst_on_s = 0.0;
  double burst_idle_s = 0.0;
  double burst_factor = 1.0;
  // Traffic mix weights (relative; need not sum to 100).
  int w_assign = 50;
  int w_batch_assign = 20;
  int w_query = 20;
  int w_edit = 10;
  int w_select = 0;
  double churn = 0.0;
  std::string design = "pipeline";  ///< "pipeline" | "selection"
};

/// The two committed design texts traffic runs against.  `pipeline` is a
/// two-stage PIPE (also what bench_design_service and bench_persistence
/// load); `selection` adds the generic ADD slot + realizations of the FD
/// demos so `select` traffic has work.
const char* pipeline_design();
const char* selection_design();
/// The library text a scenario's sessions load.
const char* design_text(const Scenario& sc);

/// Parse scenario text / file.  Strict: bad header, unknown key, or a
/// malformed value is an error naming the line.
bool parse_scenario(const std::string& text, Scenario* out, std::string* error);
bool load_scenario_file(const std::string& path, Scenario* out,
                        std::string* error);
/// Canonical scenario dump (parseable back; used by `stemcp_replay describe`).
std::string scenario_to_string(const Scenario& sc);

/// Generate the trace: a prologue (open+load per session, offset 0), then
/// `requests` traffic records with arrival offsets from the burst/idle rate
/// schedule, the first at offset 0.  The open-loop replayer answers the
/// offset-0 records before its clock starts.  Pure function of the
/// scenario — identical bytes every call.
std::vector<TraceRecord> synthesize(const Scenario& sc);

/// synthesize() straight into a trace file.
bool synthesize_to_file(const Scenario& sc, const std::string& path,
                        std::string* error);

}  // namespace stemcp::workload
