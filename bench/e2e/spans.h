// Benchmark-side spans: recorded around the calls stemcp_bench makes into
// each layer, kept in memory, and written as one Chrome trace at exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace stemcp::bench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a root span
  std::uint64_t request = 0;  ///< shared by every span of one request
  const char* name = "";      ///< static string
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
};

/// Self times over every span in `spans`, sorted by name.
std::vector<SelfTime> self_times(const std::vector<Span>& spans);

/// Write `spans` as Chrome trace-event JSON ("X" slices, ids and parents in
/// args).  False with `*error` set when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::string* error);

}  // namespace stemcp::bench
