#include "persist/framed.h"

#include <array>
#include <cstdio>

namespace stemcp::persist {

namespace {

constexpr std::size_t kCrcDigits = 8;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

bool fail(std::string* error, const char* why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

bool append_framed(std::string_view tag, std::string_view fields,
                   std::string_view line, std::string* out) {
  if (line.empty() || line.find('\n') != std::string_view::npos) {
    return false;
  }
  out->append(tag);
  out->push_back(' ');
  const std::size_t crc_at = out->size();
  out->append("00000000 ");  // patched below, once the body is in place
  const std::size_t body_at = out->size();
  out->append(fields);
  out->push_back(' ');
  out->append(line);
  char hex[kCrcDigits + 1];
  std::snprintf(hex, sizeof hex, "%08x",
                crc32(std::string_view(out->data() + body_at,
                                       out->size() - body_at)));
  out->replace(crc_at, kCrcDigits, hex, kCrcDigits);
  out->push_back('\n');
  return true;
}

bool decode_framed(std::string_view line, std::string_view tag,
                   std::string_view* body, std::string* error) {
  if (line.size() <= tag.size() || line.substr(0, tag.size()) != tag ||
      line[tag.size()] != ' ') {
    if (error != nullptr) *error = "bad magic (want '" + std::string(tag) + " ')";
    return false;
  }
  const std::string_view rest = line.substr(tag.size() + 1);
  if (rest.size() <= kCrcDigits || rest[kCrcDigits] != ' ') {
    return fail(error, "truncated CRC field");
  }
  std::uint32_t want = 0;
  for (std::size_t i = 0; i < kCrcDigits; ++i) {
    const char c = rest[i];
    const bool digit = c >= '0' && c <= '9';
    if (!digit && !(c >= 'a' && c <= 'f')) {
      return fail(error, "CRC is not 8 lowercase hex digits");
    }
    want = want * 16 + static_cast<std::uint32_t>(digit ? c - '0' : c - 'a' + 10);
  }
  *body = rest.substr(kCrcDigits + 1);
  if (crc32(*body) != want) {
    return fail(error, "CRC mismatch: the body does not match its checksum");
  }
  return true;
}

bool take_u64(std::string_view* body, std::uint64_t* out) {
  std::size_t i = 0;
  std::uint64_t v = 0;
  for (; i < body->size() && (*body)[i] >= '0' && (*body)[i] <= '9'; ++i) {
    const auto digit = static_cast<std::uint64_t>((*body)[i] - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;  // overflows 64 bits
    v = v * 10 + digit;
  }
  if (i == 0 || i >= body->size() || (*body)[i] != ' ') return false;
  *out = v;
  body->remove_prefix(i + 1);
  return true;
}

bool take_word(std::string_view* body, std::string_view* out) {
  const std::size_t sp = body->find(' ');
  if (sp == 0 || sp == std::string_view::npos) return false;
  *out = body->substr(0, sp);
  body->remove_prefix(sp + 1);
  return true;
}

FramedScan scan_framed(
    std::string_view contents, std::string_view tag, std::string_view what,
    const std::function<bool(std::string_view body, std::string* error)>&
        accept) {
  FramedScan scan;
  std::size_t pos = 0;
  while (pos < contents.size()) {
    const std::size_t nl = contents.find('\n', pos);
    if (nl == std::string_view::npos) {
      scan.torn_tail = true;  // unterminated final line: the classic tear
      break;
    }
    std::string_view body;
    std::string error;
    if (!decode_framed(contents.substr(pos, nl - pos), tag, &body, &error)) {
      // A bad frame is only tolerable as the very last line — a torn write
      // that happened to end in '\n'.
      if (contents.find('\n', nl + 1) == std::string_view::npos) {
        scan.torn_tail = true;
        break;
      }
    } else if (accept(body, &error)) {
      pos = nl + 1;
      scan.valid_bytes = pos;
      continue;
    }
    scan.error = std::string(what) + " corrupt at byte " +
                 std::to_string(pos) + ": " + error;
    break;
  }
  return scan;
}

}  // namespace stemcp::persist
