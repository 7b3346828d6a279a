#include "service/protocol.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/trace.h"
#include "persist/checkpoint.h"

namespace stemcp::service {

namespace {

/// Byte offset where parsing stopped — appended to every parse error so
/// replay diagnostics (recovery reuses this parser) point at the offending
/// token, not just the line.
std::string at_byte(std::istringstream& in, const std::string& line) {
  const auto pos = in.tellg();
  const std::size_t off =
      pos < 0 ? line.size() : static_cast<std::size_t>(pos);
  return " (at byte " + std::to_string(off) + ")";
}

/// Undo render()'s `load ... text` escapes: "\\n" is a newline and "\\\\" a
/// backslash; any other backslash stands for itself.
std::string unescape_text(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char next = i + 1 < s.size() ? s[i + 1] : '\0';
    if (s[i] == '\\' && (next == 'n' || next == '\\')) {
      out.push_back(next == 'n' ? '\n' : '\\');
      ++i;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::string rest_of(std::istringstream& in) {
  std::string rest;
  std::getline(in, rest);
  const auto first = rest.find_first_not_of(" \t");
  return first == std::string::npos ? std::string() : rest.substr(first);
}

bool parse_assignments(std::istringstream& in, const std::string& line,
                       Request* out, std::string* error) {
  std::string var;
  double value = 0.0;
  while (in >> var) {
    if (!(in >> value)) {
      in.clear();
      *error = "assignment '" + var + "' needs a numeric value" +
               at_byte(in, line);
      return false;
    }
    out->assignments.push_back({var, value});
  }
  if (out->assignments.empty()) {
    in.clear();
    *error = "expected one or more <variable> <value> pairs" + at_byte(in, line);
    return false;
  }
  return true;
}

/// Every verb the front end accepts, in usage() order — the unknown-command
/// error lists these so a typo comes back with the menu, not a dead end
/// (tests/service/protocol_test.cpp).
const char* known_verbs() {
  return "open, load, save, assign, batch-assign, edit, query, report, "
         "select, select-stats, journal, checkpoint, recover, close, "
         "sessions, stats, export-metrics, telemetry, flight, help";
}

const char* usage() {
  return "service commands: open <s> [metrics] [trace], "
         "load <s> file <path> | text <lines>, save <s> [file <path>], "
         "assign <s> <var> <value>..., batch-assign <s> <var> <value>..., "
         "edit <s> <cmd...>, query <s> [cells|vars [cell]|stats|<var>], "
         "report <s> [cell], select <s> <cell> [slot <subcell>]... "
         "[limit <n>] [commit], select-stats <s> <cell> [slot <subcell>]... "
         "[limit <n>], journal <s> <base> "
         "[every-record|interval [n]|none|group-commit] [batch <n>] "
         "[delay-us <n>] [segment <bytes>], "
         "checkpoint <s>, recover <s> <base>, close <s>, "
         "sessions, stats [--latency], export-metrics [path], "
         "telemetry on|off, flight arm <base> [slow-ns] | off | dump | "
         "status, help\n";
}

}  // namespace

bool ServiceFrontEnd::parse(const std::string& line, Request* out,
                            std::string* error) {
  *out = Request{};
  std::istringstream in(line);
  std::string verb;
  if (!(in >> verb)) {
    *error = "empty command (at byte 0)";
    return false;
  }
  if (!(in >> out->session)) {
    in.clear();
    *error = "'" + verb + "' needs a session name" + at_byte(in, line);
    return false;
  }

  if (verb == "open") {
    out->type = RequestType::kOpen;
    out->text = rest_of(in);
    return true;
  }
  if (verb == "load") {
    out->type = RequestType::kLoad;
    std::string mode;
    if (!(in >> mode) || (mode != "file" && mode != "text")) {
      in.clear();
      *error = "load needs 'file <path>' or 'text <lines>'" + at_byte(in, line);
      return false;
    }
    if (mode == "file") {
      std::string path;
      if (!(in >> path)) {
        in.clear();
        *error = "load file needs a path" + at_byte(in, line);
        return false;
      }
      std::ifstream f(path);
      if (!f.good()) {
        *error = "cannot read '" + path + "'";
        return false;
      }
      std::ostringstream text;
      text << f.rdbuf();
      out->text = text.str();
    } else {
      out->text = unescape_text(rest_of(in));
    }
    return true;
  }
  if (verb == "save") {
    out->type = RequestType::kSave;
    out->text = rest_of(in);  // optional "file <path>", handled after call
    return true;
  }
  if (verb == "assign" || verb == "batch-assign") {
    out->type = verb == "assign" ? RequestType::kAssign
                                 : RequestType::kBatchAssign;
    return parse_assignments(in, line, out, error);
  }
  if (verb == "edit") {
    out->type = RequestType::kEdit;
    out->text = rest_of(in);
    return true;
  }
  if (verb == "query") {
    out->type = RequestType::kQuery;
    out->text = rest_of(in);
    return true;
  }
  if (verb == "report") {
    out->type = RequestType::kReport;
    out->text = rest_of(in);
    return true;
  }
  if (verb == "journal") {
    out->type = RequestType::kJournal;
    out->text = rest_of(in);
    if (out->text.empty()) {
      *error = "journal needs a base path" + at_byte(in, line);
      return false;
    }
    return true;
  }
  if (verb == "checkpoint") {
    out->type = RequestType::kCheckpoint;
    return true;
  }
  if (verb == "recover") {
    out->type = RequestType::kRecover;
    out->text = rest_of(in);
    if (out->text.empty()) {
      *error = "recover needs a base path" + at_byte(in, line);
      return false;
    }
    return true;
  }
  if (verb == "select" || verb == "select-stats") {
    out->type = verb == "select" ? RequestType::kSelect
                                 : RequestType::kSelectStats;
    out->text = rest_of(in);
    if (out->text.empty()) {
      *error = verb + " needs a cell name" + at_byte(in, line);
      return false;
    }
    return true;
  }
  if (verb == "close") {
    out->type = RequestType::kClose;
    return true;
  }
  const std::size_t verb_at = line.find(verb);
  *error = "unknown service command '" + verb + "' (at byte " +
           std::to_string(verb_at == std::string::npos ? 0 : verb_at) +
           "); valid commands: " + known_verbs();
  return false;
}

bool ServiceFrontEnd::parse_logged(const std::string& line, Request* out,
                                   std::string* error) {
  std::istringstream in(line);
  std::string verb, session, mode;
  in >> verb >> session >> mode;
  if (verb == "load" && mode == "file") {
    *error = "'load ... file' is not allowed in traces or journals (library "
             "text must travel inline)";
    return false;
  }
  return parse(line, out, error);
}

namespace {

bool render_fail(std::string* error, const char* why) {
  if (error != nullptr) *error = why;
  return false;
}

/// One whitespace-free token (session names, variable paths, journal bases).
bool token_ok(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return false;
  }
  return true;
}

/// Single-line free text (edit/query/report/... payloads).  rest_of() trims
/// leading blanks on the way back in, so a payload that starts with one
/// would not round-trip.
bool line_ok(const std::string& s) {
  if (s.find('\n') != std::string::npos) return false;
  if (!s.empty() && (s.front() == ' ' || s.front() == '\t')) return false;
  return true;
}

void append_double(std::string* out, double v) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  out->append(buf, static_cast<std::size_t>(n));
}

}  // namespace

bool ServiceFrontEnd::render(const Request& r, std::string* out,
                             std::string* error) {
  if (!token_ok(r.session)) {
    return render_fail(error, "session name must be one non-empty token");
  }
  out->append(to_string(r.type));
  out->push_back(' ');
  out->append(r.session);
  switch (r.type) {
    case RequestType::kOpen:
      if (!line_ok(r.text)) return render_fail(error, "open options must be one line");
      if (!r.text.empty()) {
        out->push_back(' ');
        out->append(r.text);
      }
      return true;
    case RequestType::kLoad:
      // Always the `text` form, with the two escapes parse() undoes.
      if (!r.text.empty() && (r.text.front() == ' ' || r.text.front() == '\t')) {
        return render_fail(error, "library text starting with a blank cannot round-trip");
      }
      out->append(" text ");
      for (const char c : r.text) {
        if (c == '\n') {
          out->append("\\n");
        } else if (c == '\\') {
          out->append("\\\\");
        } else {
          out->push_back(c);
        }
      }
      return true;
    case RequestType::kSave:
      // `save <s> file <path>` is front-end sugar resolved before call();
      // a typed kSave carries no payload.
      if (!r.text.empty()) return render_fail(error, "save carries no payload");
      return true;
    case RequestType::kAssign:
    case RequestType::kBatchAssign:
      if (r.assignments.empty()) {
        return render_fail(error, "assign needs at least one <var> <value> pair");
      }
      for (const Assignment& a : r.assignments) {
        if (!token_ok(a.variable)) {
          return render_fail(error, "variable path must be one non-empty token");
        }
        out->push_back(' ');
        out->append(a.variable);
        out->push_back(' ');
        append_double(out, a.value);
      }
      return true;
    case RequestType::kEdit:
    case RequestType::kQuery:
    case RequestType::kReport:
      if (!line_ok(r.text)) return render_fail(error, "payload must be one line");
      if (!r.text.empty()) {
        out->push_back(' ');
        out->append(r.text);
      }
      return true;
    case RequestType::kJournal:
    case RequestType::kRecover:
    case RequestType::kSelect:
    case RequestType::kSelectStats:
      if (!line_ok(r.text) || r.text.empty()) {
        return render_fail(error, "payload must be one non-empty line");
      }
      out->push_back(' ');
      out->append(r.text);
      return true;
    case RequestType::kCheckpoint:
    case RequestType::kClose:
      return true;
  }
  return render_fail(error, "unknown request type");
}

std::string ServiceFrontEnd::format(const Response& r) {
  if (!r.ok) return "error: " + r.error + "\n";
  std::ostringstream out;
  out << "ok";
  if (r.violation) {
    out << " VIOLATION";
    if (!r.violation_message.empty()) out << ": " << r.violation_message;
    out << " (restored " << r.variables_restored << " variable(s))";
  } else if (r.assignments_applied > 0) {
    out << " (applied " << r.assignments_applied << " assignment(s))";
  }
  out << '\n';
  if (!r.text.empty()) {
    out << r.text;
    if (r.text.back() != '\n') out << '\n';
  }
  return out.str();
}

std::string ServiceFrontEnd::execute(const std::string& line) {
  std::istringstream peek(line);
  std::string verb;
  peek >> verb;
  if (verb.empty() || verb == "help") return usage();
  if (verb == "sessions") {
    std::ostringstream out;
    for (const std::string& name : svc_->sessions().names()) {
      out << name << '\n';
    }
    out << svc_->sessions().size() << " session(s), "
        << svc_->requests_served() << " request(s) served\n";
    return out.str();
  }

  // Service-wide telemetry views (no session argument — these read the
  // worker lanes, not one session's registry).
  if (verb == "stats") {
    std::string opt;
    peek >> opt;
    if (opt == "--latency") return svc_->telemetry().latency_table();
    if (!opt.empty()) return "error: stats options are '--latency'\n";
    std::ostringstream out;
    out << svc_->requests_served() << " request(s) served across "
        << svc_->sessions().size() << " session(s), " << svc_->shard_count()
        << " shard(s) x " << svc_->sessions().workers_per_shard()
        << " worker(s); telemetry "
        << (svc_->telemetry().enabled() ? "on" : "off") << ", "
        << svc_->telemetry().requests_recorded() << " span(s), "
        << svc_->telemetry().violations_recorded() << " violation(s), "
        << svc_->telemetry().anomalies()
        << " anomal(ies) (try: stats --latency)\n";
    return out.str();
  }
  if (verb == "export-metrics") {
    std::string path;
    peek >> path;
    core::MetricsRegistry all = svc_->telemetry().fold();
    all.merge(core::global_metrics_snapshot());
    const std::string text = core::metrics_to_prometheus(all);
    if (path.empty()) return text;
    std::string werror;
    if (!persist::atomic_write_file(path, text, &werror)) {
      return "error: " + werror + "\n";
    }
    return "ok\nmetrics written to " + path + "\n";
  }
  if (verb == "telemetry") {
    std::string mode;
    peek >> mode;
    if (mode != "on" && mode != "off") return "error: telemetry on|off\n";
    svc_->telemetry().set_enabled(mode == "on");
    return "telemetry " + mode + "\n";
  }
  if (verb == "flight") {
    TelemetryRecorder& t = svc_->telemetry();
    std::string sub;
    peek >> sub;
    if (sub == "arm") {
      std::string base;
      std::uint64_t slow_ns = 0;
      peek >> base >> slow_ns;
      if (base.empty()) {
        return "error: flight arm <dump-base> [slow-threshold-ns]\n";
      }
      t.arm_flight(base, slow_ns);
      std::ostringstream out;
      out << "flight recorder armed: dumps to " << base
          << ".<n>.trace.json on violation, journal fault";
      if (slow_ns > 0) out << ", or request > " << slow_ns << " ns";
      out << '\n';
      return out.str();
    }
    if (sub == "off") {
      t.disarm_flight();
      return "flight recorder disarmed\n";
    }
    if (sub == "dump") {
      t.dump_flight("manual");
      return "flight dump #" + std::to_string(t.dumps() - 1) + " (" +
             std::to_string(t.recent_spans().size()) + " span(s) retained)\n";
    }
    if (sub == "status") {
      std::ostringstream out;
      out << "flight recorder " << (t.flight_armed() ? "armed" : "disarmed")
          << ": slow threshold " << t.slow_threshold_ns() << " ns, "
          << t.anomalies() << " anomal(ies), " << t.dumps() << " dump(s)";
      if (!t.last_dump_reason().empty()) {
        out << ", last reason " << t.last_dump_reason();
      }
      out << '\n';
      return out.str();
    }
    return "error: flight arm <base> [slow-ns] | off | dump | status\n";
  }

  Request req;
  std::string error;
  if (!parse(line, &req, &error)) return "error: " + error + "\n";

  // `save <s> file <path>`: run the save, then write the text out here —
  // the service itself never touches the filesystem.
  std::string save_path;
  if (req.type == RequestType::kSave && !req.text.empty()) {
    std::istringstream opts(req.text);
    std::string kw;
    if (!(opts >> kw) || kw != "file" || !(opts >> save_path)) {
      return "error: save options are 'file <path>'\n";
    }
    req.text.clear();
  }

  Response resp = svc_->call(std::move(req));
  if (resp.ok && !save_path.empty()) {
    // Atomic save: tmp file + fsync + rename, so a crash mid-save can never
    // leave a truncated library file behind.
    std::string werror;
    if (!persist::atomic_write_file(save_path, resp.text, &werror)) {
      return "error: " + werror + "\n";
    }
    return "ok\nsaved to " + save_path + "\n";
  }
  return format(resp);
}

}  // namespace stemcp::service
