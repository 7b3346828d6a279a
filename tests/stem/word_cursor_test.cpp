// Differential test of the library reader's scanner: WordCursor must read
// every input exactly as std::istringstream does (src/stem/word_cursor.h).
// For each input and each sequence of `>> string`, `>> double` and
// `>> int64`, both must agree on success, on the value stored (bit for bit,
// -0 included, and whether a failed read stored anything) and on the text
// left unread.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "stem/word_cursor.h"

namespace stemcp::env {
namespace {

enum class Op { kString, kDouble, kInt };

/// What one extraction left behind.  Targets start at sentinels, so a read
/// that stores nothing differs from one that stores 0.
struct Outcome {
  bool ok = false;
  std::string word = "sentinel";
  std::uint64_t real_bits = std::bit_cast<std::uint64_t>(-12345.25);
  std::int64_t integer = 777;
  std::string rest;

  bool operator==(const Outcome&) const = default;
};

std::string show(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || u == 0x7f) {
      static const char kHex[] = "0123456789abcdef";
      out += {'\\', 'x', kHex[u >> 4], kHex[u & 15]};
    } else {
      out += c;
    }
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << "{ok " << o.ok << ", word \"" << show(o.word) << "\", real "
            << std::bit_cast<double>(o.real_bits) << " (0x" << std::hex
            << o.real_bits << std::dec << "), int " << o.integer
            << ", rest \"" << show(o.rest) << "\"}";
}

template <typename In>
Outcome extract(In& in, Op op) {
  Outcome o;
  double real = std::bit_cast<double>(o.real_bits);
  switch (op) {
    case Op::kString: o.ok = static_cast<bool>(in >> o.word); break;
    case Op::kDouble: o.ok = static_cast<bool>(in >> real); break;
    case Op::kInt: o.ok = static_cast<bool>(in >> o.integer); break;
  }
  o.real_bits = std::bit_cast<std::uint64_t>(real);
  return o;
}

const char* name(Op op) {
  return op == Op::kString ? "string" : op == Op::kDouble ? "double" : "int64";
}

/// Runs `ops` on both readers and checks that every step agrees.
void expect_same(const std::string& text, const std::vector<Op>& ops) {
  std::istringstream stream(text);
  WordCursor cursor(text);
  std::string trail;
  for (const Op op : ops) {
    trail += std::string(" >> ") + name(op);
    Outcome want = extract(stream, op);
    Outcome got = extract(cursor, op);
    // The stream's unread text, whatever its state.
    const std::streamsize avail = stream.rdbuf()->in_avail();
    want.rest = text.substr(text.size() - static_cast<std::size_t>(
                                              avail > 0 ? avail : 0));
    got.rest = std::string(cursor.rest());
    ASSERT_EQ(got, want) << "input \"" << show(text) << "\"" << trail;
  }
}

/// Every sequence of up to `depth` extractions.
void expect_same_for_all_sequences(const std::string& text, int depth) {
  std::vector<std::vector<Op>> level = {{}};
  for (int d = 0; d < depth; ++d) {
    std::vector<std::vector<Op>> next;
    for (const auto& seq : level) {
      for (const Op op : {Op::kString, Op::kDouble, Op::kInt}) {
        next.push_back(seq);
        next.back().push_back(op);
        expect_same(text, next.back());
      }
    }
    level = std::move(next);
  }
}

TEST(WordCursorTest, FixedCasesMatchIstream) {
  const std::vector<std::string> cases = {
      // Exponents that dangle, underflow and overflow.
      "1e", "1e+", "12.5e", "1e-400", "-1e-400", "4.9e-324", "2e-324",
      "1e-320", "1e400", "-1e400", "1e99999999999999999999", "1E5", "1e+05",
      // Words num_get refuses, and signs.
      "inf", "nan", "INF", "-inf", "+-1", "-+1", "+5", "-5", ".", "-", "+",
      "-.", ".5", "-.5e-3", "1.", "1.e5", "0x10", "0X1f", "x10",
      // Numbers followed by more text.
      "1.5abc", "2left", "1e5.3", "1ee5", "1.2.3", "0e", "1,5", "3 4 5",
      // Integer limits and leading zeros.
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "18446744073709551616", "00012", "-0", "-0.0",
      "0000.0001", "1234567890123456789012345678901234567890",
      // Whitespace of every kind, NUL, and CRLF lines.
      "", " ", "\t\v\f\r\n", "  \t 42 ", "\v7\f", std::string("a\0b", 3),
      std::string("7\0", 2),
      "cell A\r", "delay a b value 1e-9\r", "bbox 0 0 4 4\r\n", "12\r",
      "1.5\r\n"};
  for (const std::string& text : cases) {
    SCOPED_TRACE(show(text));
    expect_same_for_all_sequences(text, 3);
  }
}

// Embedded NUL bytes need an explicit length.
TEST(WordCursorTest, NulBytesAreWordCharacters) {
  const std::string text("ab\0cd 5\0", 8);
  expect_same_for_all_sequences(text, 3);
}

// Random strings over the characters numbers are made of, and
// whitespace, NUL and letters, read by random sequences of extractions.
TEST(WordCursorTest, SeededRandomInputsMatchIstream) {
  static const char kAlphabet[] =
      "0123456789+-.eExXinfaINFA \t\r\v\0bcdlqz";
  std::mt19937 rng(20261019);
  std::uniform_int_distribution<std::size_t> pick(0, sizeof kAlphabet - 2);
  std::uniform_int_distribution<int> length(0, 16);
  std::uniform_int_distribution<int> steps(1, 5);
  std::uniform_int_distribution<int> op(0, 2);
  for (int round = 0; round < 40000; ++round) {
    std::string text;
    for (int n = length(rng); n > 0; --n) text += kAlphabet[pick(rng)];
    std::vector<Op> ops;
    for (int n = steps(rng); n > 0; --n) {
      ops.push_back(static_cast<Op>(op(rng)));
    }
    expect_same(text, ops);
    if (HasFatalFailure()) return;
  }
}

// Random well-formed reals of up to 25 digits and any exponent, so the two
// conversions must round every value alike, subnormals and overflow
// included.
TEST(WordCursorTest, SeededRandomRealsRoundAlike) {
  std::mt19937 rng(1988);
  std::uniform_int_distribution<int> digit(0, 9);
  std::uniform_int_distribution<int> count(0, 25);
  std::uniform_int_distribution<int> exponent(-340, 320);
  std::uniform_int_distribution<int> coin(0, 3);
  for (int round = 0; round < 20000; ++round) {
    std::string text = coin(rng) == 0 ? "-" : "";
    for (int n = count(rng); n > 0; --n) text += char('0' + digit(rng));
    if (coin(rng) != 0) {
      text += '.';
      for (int n = count(rng); n > 0; --n) text += char('0' + digit(rng));
    }
    if (coin(rng) != 0) text += "e" + std::to_string(exponent(rng));
    expect_same(text + " 1", {Op::kDouble, Op::kInt});
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace stemcp::env
