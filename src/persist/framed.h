// Framed lines: the one on-disk line format under both of the repository's
// logs — the operation journal (tag J2, persist/journal.h) and the workload
// trace (tag T1, workload/trace.h).  Every line is
//
//   <tag> <crc32-hex8> <body>\n        body := <fields> <request-line>
//
//   * <tag> names the format and its version;
//   * <crc32-hex8> is the CRC-32 (IEEE) of exactly <body>, as eight
//     lowercase hex digits;
//   * <fields> are the format's own space-separated numbers and words, and
//     <request-line> is one protocol request (ServiceFrontEnd::render).
//
// Scan rules (scan_framed): a final line without its '\n', or a final line
// whose tag or CRC is wrong, is a torn write — dropped and reported through
// torn_tail.  A bad line with more lines after it cannot be a torn write and
// fails the scan with its byte offset.  So does a CRC-valid line that the
// format refuses, wherever it sits: a torn write never carries a valid CRC.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace stemcp::persist {

/// CRC-32 (IEEE, reflected) over `data` — the per-line checksum.
std::uint32_t crc32(std::string_view data);

/// Append "<tag> <crc> <fields> <line>\n" to `*out`.  Allocation-free when
/// `*out` has the capacity.  Returns false, appending nothing, when `line`
/// is empty or holds a newline.
bool append_framed(std::string_view tag, std::string_view fields,
                   std::string_view line, std::string* out);

/// Check one line (no trailing '\n') against `tag` and its CRC and point
/// `*body` at what follows the CRC.  False with `*error` set otherwise.
bool decode_framed(std::string_view line, std::string_view tag,
                   std::string_view* body, std::string* error);

/// Consume one decimal field and its trailing space from the front of a body.
bool take_u64(std::string_view* body, std::uint64_t* out);
/// Consume one word and its trailing space from the front of a body.
bool take_word(std::string_view* body, std::string_view* out);

/// Where a scan stopped.
struct FramedScan {
  std::uint64_t valid_bytes = 0;  ///< end offset of the last accepted line
  bool torn_tail = false;         ///< a torn final line was dropped
  std::string error;  ///< non-empty: corruption, with its byte offset
};

/// Scan `contents` front to back under the rules above, handing the body of
/// every line that checks out to `accept`.  `what` names the log in errors
/// ("journal corrupt at byte 120: CRC mismatch ...").
FramedScan scan_framed(
    std::string_view contents, std::string_view tag, std::string_view what,
    const std::function<bool(std::string_view body, std::string* error)>&
        accept);

}  // namespace stemcp::persist
