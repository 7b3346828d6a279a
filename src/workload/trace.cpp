#include "workload/trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "persist/framed.h"
#include "service/protocol.h"

namespace stemcp::workload {

namespace {

constexpr std::string_view kTag = "T1";

bool fail(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return false;
}

/// <offset-ns> <request-line>
bool decode_body(std::string_view body, TraceRecord* out, std::string* error) {
  std::uint64_t offset = 0;
  if (!persist::take_u64(&body, &offset) || body.empty()) {
    return fail(error, "missing arrival offset or request line");
  }
  service::Request req;
  std::string perr;
  if (!service::ServiceFrontEnd::parse_logged(std::string(body), &req, &perr)) {
    return fail(error, "bad request line: " + perr);
  }
  out->offset_ns = offset;
  out->line.assign(body);
  out->request = std::move(req);
  return true;
}

}  // namespace

bool encode_trace_line(std::uint64_t offset_ns, std::string_view line,
                       std::string* out, std::string* error) {
  char digits[24];
  const int n = std::snprintf(digits, sizeof digits, "%llu",
                              static_cast<unsigned long long>(offset_ns));
  if (!persist::append_framed(
          kTag, std::string_view(digits, static_cast<std::size_t>(n)), line,
          out)) {
    return fail(error, "request line must be one non-empty line");
  }
  return true;
}

bool decode_trace_line(std::string_view encoded, TraceRecord* out,
                       std::string* error) {
  std::string_view body;
  return persist::decode_framed(encoded, kTag, &body, error) &&
         decode_body(body, out, error);
}

TraceScan scan_trace_text(const std::string& contents) {
  TraceScan scan;
  const persist::FramedScan framed = persist::scan_framed(
      contents, kTag, "trace",
      [&scan](std::string_view body, std::string* error) {
        TraceRecord rec;
        if (!decode_body(body, &rec, error)) return false;
        if (!scan.records.empty() &&
            rec.offset_ns < scan.records.back().offset_ns) {
          *error = "disordered offset " + std::to_string(rec.offset_ns) +
                   " goes backwards (previous " +
                   std::to_string(scan.records.back().offset_ns) + ")";
          return false;
        }
        scan.records.push_back(std::move(rec));
        return true;
      });
  scan.torn_tail = framed.torn_tail;
  scan.error = framed.error;
  scan.bytes_scanned = framed.valid_bytes;
  return scan;
}

TraceScan scan_trace_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) {
    TraceScan scan;
    scan.error = "cannot read trace '" + path + "'";
    return scan;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return scan_trace_text(buf.str());
}

TraceWriter::TraceWriter(std::string path) : path_(std::move(path)) {}

TraceWriter::~TraceWriter() {
  if (file_ != nullptr) std::fclose(static_cast<std::FILE*>(file_));
}

std::unique_ptr<TraceWriter> TraceWriter::open(const std::string& path,
                                               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open trace '" + path + "' for write";
    return nullptr;
  }
  std::unique_ptr<TraceWriter> w(new TraceWriter(path));
  w->file_ = f;
  return w;
}

bool TraceWriter::append(std::uint64_t offset_ns, std::string_view line,
                         std::string* error) {
  if (dead_ || file_ == nullptr) {
    return fail(error, "trace writer is closed");
  }
  if (records_ > 0 && offset_ns < last_offset_ns_) {
    return fail(error, "arrival offsets must be non-decreasing");
  }
  scratch_.clear();
  if (!encode_trace_line(offset_ns, line, &scratch_, error)) return false;
  if (std::fwrite(scratch_.data(), 1, scratch_.size(),
                  static_cast<std::FILE*>(file_)) != scratch_.size()) {
    dead_ = true;
    return fail(error, "short write to trace '" + path_ + "'");
  }
  last_offset_ns_ = offset_ns;
  ++records_;
  return true;
}

bool TraceWriter::finish(std::string* error) {
  if (file_ == nullptr) return fail(error, "trace writer is closed");
  std::FILE* f = static_cast<std::FILE*>(file_);
  file_ = nullptr;
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (dead_) return fail(error, "trace '" + path_ + "' had a failed write");
  if (!flushed || !closed) {
    return fail(error, "flush/close of trace '" + path_ + "' failed");
  }
  return true;
}

}  // namespace stemcp::workload
