#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace stemcp::bench {

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::map<std::string, SelfTime> by_name;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  for (const Span& s : spans) {
    const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    std::uint64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      // Children may overlap (setup loads run on both shards at once), so
      // take the union of their intervals, clipped to the parent's.
      cover.clear();
      for (const std::size_t c : it->second) {
        const std::uint64_t a = std::max(spans[c].start_ns, s.start_ns);
        const std::uint64_t b = std::min(spans[c].end_ns, s.end_ns);
        if (b > a) cover.emplace_back(a, b);
      }
      std::sort(cover.begin(), cover.end());
      std::uint64_t reach = 0;
      for (const auto& [a, b] : cover) {
        const std::uint64_t from = std::max(a, reach);
        if (b > from) covered += b - from;
        reach = std::max(reach, b);
      }
    }
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_us += static_cast<double>(dur - std::min(dur, covered)) / 1e3;
  }
  std::vector<SelfTime> out;
  out.reserve(by_name.size());
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot open trace file '" + path + "'";
    return false;
  }
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"stemcp_bench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%" PRIu32
                 ",\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"request\":%" PRIu64 "}}",
                 first ? "" : ",\n", s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid, s.id,
                 s.parent, s.request);
    first = false;
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    *error = "write to trace file '" + path + "' failed";
    return false;
  }
  return true;
}

}  // namespace stemcp::bench
