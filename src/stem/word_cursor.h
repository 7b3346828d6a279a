// WordCursor: the words and numbers of one line of library text, read in
// place from the caller's buffer (stem/io.cpp).
//
// Each `>>` reproduces std::istream's extraction on a stream in the classic
// locale: it consumes the same characters, stores the same value, and fails
// in the same cases, and a failure is sticky.  So library text reads as
// `istream >>` reads it, without a stream's set-up and copy per line.  Only
// a word handed out as std::string is copied.  The cursor holds a view: the
// text must outlive it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace stemcp::env {

class WordCursor {
 public:
  explicit WordCursor(std::string_view text) : text_(text) {}

  /// As `is >> word`: skip whitespace, then take every character up to the
  /// next whitespace or the end.  Fails when only whitespace is left, and
  /// then leaves `word` as it was.
  WordCursor& operator>>(std::string& word);
  /// As `is >> v` (libstdc++ num_get): an optional sign, digits with at
  /// most one '.', and an exponent only after a digit.  Fails, storing 0,
  /// unless the consumed characters are a whole number (so "1e", "inf" and
  /// "." fail); an out-of-range value fails storing +-max; an underflow
  /// reads as 0.  When only whitespace is left, fails leaving `v` alone.
  WordCursor& operator>>(double& v);
  /// As `is >> v`: an optional sign and decimal digits.  Fails storing 0
  /// without a digit, or +-limit on overflow; when only whitespace is left,
  /// fails leaving `v` alone.
  WordCursor& operator>>(std::int64_t& v);

  explicit operator bool() const { return !failed_; }

  /// The text not consumed yet.
  std::string_view rest() const { return text_.substr(pos_); }

 private:
  /// istream's sentry: false if an extraction failed before; else skip
  /// whitespace and fail at the end of the text.
  bool start();

  std::string_view text_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace stemcp::env
