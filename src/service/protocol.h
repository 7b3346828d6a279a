// Line protocol for the design service: one request per text line, one
// textual response per request — the transport-agnostic front end that the
// constraint shell's `service` command (and any future socket server)
// speaks.  See docs/SERVICE.md for the grammar.
#pragma once

#include <string>

#include "service/design_service.h"

namespace stemcp::service {

class ServiceFrontEnd {
 public:
  explicit ServiceFrontEnd(DesignService& svc) : svc_(&svc) {}

  /// Execute one protocol line and return the textual response (always
  /// newline-terminated; errors come back as "error: ...").
  ///
  ///   open <sess> [metrics] [trace]
  ///   load <sess> file <path> | load <sess> text <line\nline...>
  ///   save <sess> [file <path>]
  ///   assign <sess> <var> <value> [<var> <value> ...]
  ///   batch-assign <sess> <var> <value> [<var> <value> ...]
  ///   edit <sess> <edit command...>
  ///   query <sess> [cells | vars [cell] | stats | <variable path>]
  ///   report <sess> [cell]
  ///   journal <sess> <base> [every-record|interval [n]|none|group-commit]
  ///                         [batch n] [delay-us n] [segment n]
  ///   checkpoint <sess>
  ///   recover <sess> <base>
  ///   close <sess>
  ///   sessions
  ///   help
  ///
  /// In `load ... text`, the two-character sequence "\n" separates library
  /// lines and "\\" stands for one backslash, so a whole design fits on one
  /// protocol line.
  std::string execute(const std::string& line);

  /// Parse one protocol line into a typed Request.  Returns false (with
  /// `error` set) for front-end syntax errors.  `sessions` and `help` are
  /// front-end commands and not parseable as Requests.
  static bool parse(const std::string& line, Request* out, std::string* error);
  /// parse() for a line read back from a journal or trace: also refuses
  /// `load ... file`, so replaying a log never reads a file the log does not
  /// carry.
  static bool parse_logged(const std::string& line, Request* out,
                           std::string* error);

  /// Render a structured response as protocol text.
  static std::string format(const Response& r);

  /// Render a typed Request back into one protocol line (no trailing
  /// newline), APPENDED to `*out` — the inverse of parse(), and the request
  /// text of both logs: journal records and workload traces.  Allocation-
  /// free in steady state: only appends to `*out` (whose capacity is reused
  /// by callers), never builds temporaries.  Returns false (with `*error`
  /// set when non-null) for requests that cannot round-trip through the
  /// line grammar: empty or whitespace-carrying session names and variable
  /// paths, newlines in single-line payloads, empty required payloads, or
  /// a kSave payload (`save ... file` is resolved by execute()).
  /// kLoad is always rendered in the `text` form — `file` is a parse-time
  /// convenience, and logs must be self-contained.
  static bool render(const Request& r, std::string* out,
                     std::string* error = nullptr);

 private:
  DesignService* svc_;
};

}  // namespace stemcp::service
