#include "workload/synth.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "service/protocol.h"

namespace stemcp::workload {

namespace {

using service::Request;
using service::RequestType;

// The PIPE design: two STAGE subcells under a parent delay spec, so assigns
// propagate and can violate.
const char* kPipeline = R"(cell STAGE
  signal in input
  signal out output
  delay in out
end
cell PIPE
  signal in input
  signal out output
  delay in out
    spec <= 1
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

// The generic-adder selection design of the FD demos (thesis §8), appended
// to the pipeline cells so one library serves every verb in the mix.
const char* kSelectionExtra = R"(cell ADD generic
  signal a input
  signal out output
  delay a out
end
cell ADD.RC super ADD
  bbox 0 0 8 10
  signal a input
  signal out output
  delay a out value 8e-9
end
cell ADD.CS super ADD
  bbox 0 0 8 22
  signal a input
  signal out output
  delay a out value 5e-9
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

/// Deterministic seeded xorshift64.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed ^ 0x9E3779B97F4A7C15ull) {
    if (s == 0) s = 0x9E3779B97F4A7C15ull;
  }
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

bool fail(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return false;
}

std::string session_name(int k) { return "w" + std::to_string(k); }

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Request make(RequestType t, std::string session, std::string text = {}) {
  Request r;
  r.type = t;
  r.session = std::move(session);
  r.text = std::move(text);
  return r;
}

/// Offered rate at elapsed time t: base rate, multiplied by the burst
/// factor inside each on-window of the on/idle cycle.
double rate_at(const Scenario& sc, double t_s) {
  if (sc.burst_on_s <= 0.0 || sc.burst_factor == 1.0) return sc.rate_rps;
  const double cycle = sc.burst_on_s + sc.burst_idle_s;
  if (cycle <= 0.0) return sc.rate_rps;
  const double pos = std::fmod(t_s, cycle);
  return pos < sc.burst_on_s ? sc.rate_rps * sc.burst_factor : sc.rate_rps;
}

}  // namespace

const char* pipeline_design() { return kPipeline; }

const char* selection_design() {
  static const std::string combined = std::string(kPipeline) + kSelectionExtra;
  return combined.c_str();
}

const char* design_text(const Scenario& sc) {
  return sc.design == "selection" ? selection_design() : pipeline_design();
}

bool parse_scenario(const std::string& text, Scenario* out,
                    std::string* error) {
  *out = Scenario{};
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (lineno == 1) {
      if (line != "# stemcp-scenario v1") {
        return fail(error,
                    "scenario line 1: expected header '# stemcp-scenario v1'");
      }
      saw_header = true;
      continue;
    }
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ln(line);
    std::string key;
    ln >> key;
    const std::string at = "scenario line " + std::to_string(lineno) + ": ";
    if (key == "name") {
      if (!(ln >> out->name)) return fail(error, at + "name needs a token");
    } else if (key == "seed") {
      if (!(ln >> out->seed)) return fail(error, at + "seed needs an integer");
    } else if (key == "sessions") {
      if (!(ln >> out->sessions) || out->sessions < 1) {
        return fail(error, at + "sessions needs an integer >= 1");
      }
    } else if (key == "zipf-skew") {
      if (!(ln >> out->zipf_skew) || out->zipf_skew < 0.0) {
        return fail(error, at + "zipf-skew needs a number >= 0");
      }
    } else if (key == "rate") {
      if (!(ln >> out->rate_rps) || out->rate_rps <= 0.0) {
        return fail(error, at + "rate needs a number > 0");
      }
    } else if (key == "requests") {
      if (!(ln >> out->requests) || out->requests < 1) {
        return fail(error, at + "requests needs an integer >= 1");
      }
    } else if (key == "burst") {
      if (!(ln >> out->burst_on_s >> out->burst_idle_s >> out->burst_factor) ||
          out->burst_on_s < 0.0 || out->burst_idle_s < 0.0 ||
          out->burst_factor <= 0.0) {
        return fail(error, at + "burst needs <on-s> <idle-s> <factor>");
      }
    } else if (key == "mix") {
      out->w_assign = out->w_batch_assign = out->w_query = out->w_edit =
          out->w_select = 0;
      std::string verb;
      int weight = 0;
      bool any = false;
      while (ln >> verb) {
        if (!(ln >> weight) || weight < 0) {
          return fail(error, at + "mix '" + verb + "' needs a weight >= 0");
        }
        any = true;
        if (verb == "assign") {
          out->w_assign = weight;
        } else if (verb == "batch-assign") {
          out->w_batch_assign = weight;
        } else if (verb == "query") {
          out->w_query = weight;
        } else if (verb == "edit") {
          out->w_edit = weight;
        } else if (verb == "select") {
          out->w_select = weight;
        } else {
          return fail(error, at + "unknown mix verb '" + verb + "'");
        }
      }
      if (!any) return fail(error, at + "mix needs <verb> <weight> pairs");
    } else if (key == "churn") {
      if (!(ln >> out->churn) || out->churn < 0.0 || out->churn > 1.0) {
        return fail(error, at + "churn needs a probability in [0, 1]");
      }
    } else if (key == "design") {
      if (!(ln >> out->design) ||
          (out->design != "pipeline" && out->design != "selection")) {
        return fail(error, at + "design must be 'pipeline' or 'selection'");
      }
    } else {
      return fail(error, at + "unknown key '" + key + "'");
    }
    std::string extra;
    if (ln >> extra) {
      return fail(error, at + "trailing token '" + extra + "'");
    }
  }
  if (!saw_header) {
    return fail(error, "scenario line 1: expected header '# stemcp-scenario v1'");
  }
  if (out->w_assign + out->w_batch_assign + out->w_query + out->w_edit +
          out->w_select <= 0) {
    return fail(error, "scenario: mix weights sum to zero");
  }
  if (out->w_select > 0 && out->design != "selection") {
    return fail(error,
                "scenario: 'mix select' needs 'design selection' (the "
                "pipeline design has no generic slots)");
  }
  return true;
}

bool load_scenario_file(const std::string& path, Scenario* out,
                        std::string* error) {
  std::ifstream f(path);
  if (!f.good()) {
    return fail(error, "cannot read scenario '" + path + "'");
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_scenario(buf.str(), out, error);
}

std::string scenario_to_string(const Scenario& sc) {
  std::ostringstream out;
  out << "# stemcp-scenario v1\n"
      << "name " << sc.name << '\n'
      << "seed " << sc.seed << '\n'
      << "sessions " << sc.sessions << '\n'
      << "zipf-skew " << fmt_double(sc.zipf_skew) << '\n'
      << "rate " << fmt_double(sc.rate_rps) << '\n'
      << "requests " << sc.requests << '\n'
      << "burst " << fmt_double(sc.burst_on_s) << ' '
      << fmt_double(sc.burst_idle_s) << ' ' << fmt_double(sc.burst_factor)
      << '\n'
      << "mix assign " << sc.w_assign << " batch-assign " << sc.w_batch_assign
      << " query " << sc.w_query << " edit " << sc.w_edit << " select "
      << sc.w_select << '\n'
      << "churn " << fmt_double(sc.churn) << '\n'
      << "design " << sc.design << '\n';
  return out.str();
}

std::vector<TraceRecord> synthesize(const Scenario& sc) {
  std::vector<TraceRecord> records;
  records.reserve(static_cast<std::size_t>(sc.requests) +
                  static_cast<std::size_t>(sc.sessions) * 2 + 16);
  const char* design = design_text(sc);
  auto emit = [&records](std::uint64_t offset_ns, Request req) {
    TraceRecord rec;
    rec.offset_ns = offset_ns;
    rec.request = std::move(req);
    std::string err;
    if (!service::ServiceFrontEnd::render(rec.request, &rec.line, &err)) {
      // Every request this generator builds is renderable by construction.
      return;
    }
    records.push_back(std::move(rec));
  };

  // Prologue: every session opened and loaded at offset 0.  This is set-up,
  // not timed traffic: the open-loop replayer submits the offset-0 records
  // and waits for their answers before it starts its clock.
  for (int k = 0; k < sc.sessions; ++k) {
    emit(0, make(RequestType::kOpen, session_name(k)));
    emit(0, make(RequestType::kLoad, session_name(k), design));
  }

  // Zipf-ish popularity: session k draws with weight 1e6 / (k+1)^skew.
  std::vector<std::uint64_t> cumulative;
  cumulative.reserve(static_cast<std::size_t>(sc.sessions));
  std::uint64_t total_weight = 0;
  for (int k = 0; k < sc.sessions; ++k) {
    const double w = 1e6 / std::pow(static_cast<double>(k + 1), sc.zipf_skew);
    total_weight += w < 1.0 ? 1 : static_cast<std::uint64_t>(w);
    cumulative.push_back(total_weight);
  }
  auto pick_session = [&cumulative, total_weight](Rng& rng) {
    const std::uint64_t roll = rng.below(total_weight);
    for (std::size_t k = 0; k < cumulative.size(); ++k) {
      if (roll < cumulative[k]) return static_cast<int>(k);
    }
    return 0;
  };

  const std::uint64_t mix_total = static_cast<std::uint64_t>(
      sc.w_assign + sc.w_batch_assign + sc.w_query + sc.w_edit + sc.w_select);
  Rng rng(sc.seed);
  double t_ns = 0.0;
  double value = 1e-9;
  int emitted = 0;
  const std::uint64_t churn_scale = 1000000;
  const std::uint64_t churn_cut =
      static_cast<std::uint64_t>(sc.churn * static_cast<double>(churn_scale));
  while (emitted < sc.requests) {
    const std::uint64_t at = static_cast<std::uint64_t>(t_ns);
    const std::string name = session_name(pick_session(rng));
    if (churn_cut > 0 && rng.below(churn_scale) < churn_cut) {
      // Session churn: drop and rebuild the picked session in place.  The
      // three records share one arrival — a churn event is one burst of work.
      emit(at, make(RequestType::kClose, name));
      emit(at, make(RequestType::kOpen, name));
      emit(at, make(RequestType::kLoad, name, design));
      emitted += 3;
    } else {
      const std::uint64_t roll = rng.below(mix_total);
      if (roll < static_cast<std::uint64_t>(sc.w_assign)) {
        value += 1e-9;  // a new value every wave (one-value-change rule)
        Request r = make(RequestType::kAssign, name);
        r.assignments.push_back({"PIPE/s0.delay(in->out)", value});
        emit(at, std::move(r));
      } else if (roll < static_cast<std::uint64_t>(sc.w_assign +
                                                   sc.w_batch_assign)) {
        value += 1e-9;
        Request r = make(RequestType::kBatchAssign, name);
        r.assignments.push_back({"PIPE/s0.delay(in->out)", value});
        r.assignments.push_back({"PIPE/s1.delay(in->out)", value});
        emit(at, std::move(r));
      } else if (roll < static_cast<std::uint64_t>(
                            sc.w_assign + sc.w_batch_assign + sc.w_query)) {
        emit(at, make(RequestType::kQuery, name, "PIPE.delay(in->out)"));
      } else if (roll < static_cast<std::uint64_t>(sc.w_assign +
                                                   sc.w_batch_assign +
                                                   sc.w_query + sc.w_edit)) {
        value += 1e-9;
        emit(at, make(RequestType::kEdit, name,
                      "leaf-delay STAGE in out " + fmt_double(value)));
      } else {
        emit(at, make(RequestType::kSelect, name, "ALU limit 4"));
      }
      ++emitted;
    }
    t_ns += 1e9 / rate_at(sc, t_ns / 1e9);
  }
  return records;
}

bool synthesize_to_file(const Scenario& sc, const std::string& path,
                        std::string* error) {
  const std::vector<TraceRecord> records = synthesize(sc);
  std::unique_ptr<TraceWriter> writer = TraceWriter::open(path, error);
  if (writer == nullptr) return false;
  for (const TraceRecord& rec : records) {
    if (!writer->append(rec, error)) return false;
  }
  return writer->finish(error);
}

}  // namespace stemcp::workload
