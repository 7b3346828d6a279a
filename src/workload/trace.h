// Trace format for recorded/synthesized design-session traffic: one
// timestamped request per framed line (persist/framed.h, docs/FORMAT.md) —
//
//   T1 <crc32-hex8> <offset-ns> <protocol-request-line>
//
//   * offset-ns — arrival time in nanoseconds relative to the first record
//     (the first record's offset is 0); offsets are non-decreasing, and a
//     CRC-valid record that goes backwards in time is CORRUPTION, not a torn
//     write — the scanner rejects the file.
//   * protocol-request-line — one request as ServiceFrontEnd::render writes
//     it, parsed back with ServiceFrontEnd::parse_logged: `load ... file` is
//     rejected, so traces stay self-contained.
//
// The framing, the CRC and the torn-tail rules are the journal's: both logs
// are written and scanned by the one codec in persist/framed.h.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "service/design_service.h"

namespace stemcp::workload {

/// One trace line: the arrival offset, the canonical protocol text (as
/// written between the CRC header and the newline — kept verbatim so a
/// parse→write round trip is byte-identical), and the parsed request.
struct TraceRecord {
  std::uint64_t offset_ns = 0;
  std::string line;  ///< protocol request text, no trailing newline
  service::Request request;
};

/// Result of scanning a trace file (persist::scan_framed's rules).
struct TraceScan {
  std::vector<TraceRecord> records;
  bool torn_tail = false;    ///< final line torn/unterminated (tolerated)
  std::string error;         ///< non-empty: corruption, nothing usable after
  std::size_t bytes_scanned = 0;  ///< clean prefix length (truncate point)
};

/// Append one encoded trace line (including the trailing '\n') to `*out`.
/// Validates that `line` is one non-empty newline-free protocol line;
/// does NOT re-parse it (writers render via ServiceFrontEnd::render, which
/// is correct by construction — the strict re-parse belongs to readers).
/// Allocation-free in steady state: appends into `*out`'s existing capacity.
bool encode_trace_line(std::uint64_t offset_ns, std::string_view line,
                       std::string* out, std::string* error = nullptr);

/// Strictly decode one trace line (no trailing newline): framing, CRC,
/// offset, and the embedded request must all parse; `load ... file` forms
/// are rejected.  On success fills `*out` (including the verbatim `line`).
bool decode_trace_line(std::string_view encoded, TraceRecord* out,
                       std::string* error);

/// Scan trace-file contents already in memory.  Never throws; corruption
/// comes back in TraceScan::error with a byte offset.
TraceScan scan_trace_text(const std::string& contents);

/// Read and scan a trace file.  A missing/unreadable file is an error.
TraceScan scan_trace_file(const std::string& path);

/// Buffered trace writer.  NOT thread-safe — the recorder serializes calls
/// under its own mutex (a trace is a total order; see recorder.h).
class TraceWriter {
 public:
  /// Create/truncate `path`; nullptr (with `*error` set) on failure.
  static std::unique_ptr<TraceWriter> open(const std::string& path,
                                           std::string* error);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Append one record.  Enforces non-decreasing offsets (the format
  /// invariant readers reject on) and line well-formedness.  Allocation-free
  /// in steady state: encodes into a reused scratch buffer.
  bool append(std::uint64_t offset_ns, std::string_view line,
              std::string* error = nullptr);
  bool append(const TraceRecord& rec, std::string* error = nullptr) {
    return append(rec.offset_ns, rec.line, error);
  }

  /// Flush and close.  False if any write (including this flush) failed.
  bool finish(std::string* error = nullptr);

  std::uint64_t records() const { return records_; }
  const std::string& path() const { return path_; }

 private:
  explicit TraceWriter(std::string path);

  std::string path_;
  void* file_ = nullptr;  ///< FILE*; void* keeps <cstdio> out of the header
  std::uint64_t records_ = 0;
  std::uint64_t last_offset_ns_ = 0;
  std::string scratch_;
  bool dead_ = false;
};

}  // namespace stemcp::workload
