#include "stem/word_cursor.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <new>
#include <locale.h>  // newlocale
#include <stdlib.h>  // strtod_l

namespace stemcp::env {

namespace {

/// The whitespace of the classic locale: space, \t, \n, \v, \f and \r.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

bool WordCursor::start() {
  if (failed_) return false;
  while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  failed_ = pos_ == text_.size();
  return !failed_;
}

WordCursor& WordCursor::operator>>(std::string& word) {
  if (!start()) return *this;
  const std::size_t begin = pos_;
  while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
  word.assign(text_.data() + begin, pos_ - begin);
  return *this;
}

WordCursor& WordCursor::operator>>(double& v) {
  if (!start()) return *this;
  // num_get's scan decides which characters are the number...
  const std::size_t begin = pos_;
  const std::size_t n = text_.size();
  if (text_[pos_] == '+' || text_[pos_] == '-') ++pos_;
  bool digits = false;
  bool point = false;
  bool exponent = false;
  for (; pos_ < n; ++pos_) {
    const char c = text_[pos_];
    if (c >= '0' && c <= '9') {
      digits = true;
    } else if (c == '.' && !point && !exponent) {
      point = true;
    } else if ((c == 'e' || c == 'E') && digits && !exponent) {
      exponent = true;
      if (pos_ + 1 < n && (text_[pos_ + 1] == '+' || text_[pos_ + 1] == '-')) {
        ++pos_;
      }
    } else {
      break;
    }
  }
  // ...and strtod must convert all of them.  Both it and from_chars round
  // correctly, so they agree on every value; from_chars takes no '+'.
  std::string_view num = text_.substr(begin, pos_ - begin);
  if (num.starts_with('+')) num.remove_prefix(1);
  const char* const end = num.data() + num.size();
  double out = 0.0;
  const auto [ptr, ec] = std::from_chars(num.data(), end, out);
  if (ptr != end ||
      (ec != std::errc() && ec != std::errc::result_out_of_range)) {
    v = 0.0;
    failed_ = true;
    return *this;
  }
  if (ec == std::errc::result_out_of_range) {
    // An overflow or an underflow: num_get keeps strtod's value, or fails
    // with +-max where that is infinite.
    static const locale_t c_locale = newlocale(LC_ALL_MASK, "C", locale_t{});
    if (c_locale == locale_t{}) throw std::bad_alloc();  // its one failure
    const std::string copy(num);
    out = strtod_l(copy.c_str(), nullptr, c_locale);
    if (std::isinf(out)) {
      v = std::copysign(std::numeric_limits<double>::max(), out);
      failed_ = true;
      return *this;
    }
  }
  v = out;
  return *this;
}

WordCursor& WordCursor::operator>>(std::int64_t& v) {
  if (!start()) return *this;
  const bool negative = text_[pos_] == '-';
  if (negative || text_[pos_] == '+') ++pos_;
  // num_get accumulates in unsigned arithmetic and, past an overflow, still
  // consumes every digit.
  using U = std::uint64_t;
  const U max = negative ? U{1} << 63 : (U{1} << 63) - 1;
  U result = 0;
  bool digits = false;
  bool overflow = false;
  for (; pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
       ++pos_) {
    const U digit = static_cast<U>(text_[pos_] - '0');
    digits = true;
    if (result > max / 10) {
      overflow = true;
    } else {
      result *= 10;
      overflow |= result > max - digit;
      result += digit;
    }
  }
  if (!digits || overflow) {
    failed_ = true;
    v = !digits   ? 0
        : negative ? std::numeric_limits<std::int64_t>::min()
                   : std::numeric_limits<std::int64_t>::max();
    return *this;
  }
  v = static_cast<std::int64_t>(negative ? 0 - result : result);
  return *this;
}

}  // namespace stemcp::env
