// Seeded mutation fuzzing of the one statement parser (stem/io.h) through
// both of its entries: library text, loaded into an empty library and
// appended to a loaded one, and edit commands, applied to a built design.
// Each input takes the framed-line fuzzer's byte flips, truncations at a
// random offset, and splices with a second valid input, under its seed.  The
// reader must never crash, every error must name its line or quote its edit
// command, a failed load or edit must leave the library exactly as it was
// (the same save image, cell count and constraint count), and a mutant that
// loads must save to a fixed point.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "stem/io.h"
#include "stem/stem.h"
#include "workload/synth.h"

namespace stemcp::env {
namespace {

constexpr std::uint64_t kSeed = 0x5EEDF00Dull;
constexpr int kMutationsPerInput = 300;  // 100 of each kind

/// xorshift64: deterministic across platforms and runs.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

/// Flip, truncate or splice `a` (with `b`); `what` says which.
std::string mutate(const std::string& a, const std::string& b, int i, Rng& rng,
                   std::string* what) {
  if (i % 3 == 0) {
    std::string m = a;
    const std::size_t at = rng.below(m.size());
    m[at] = static_cast<char>(m[at] ^ (1 + rng.below(255)));
    *what = "flip at " + std::to_string(at);
    return m;
  }
  if (i % 3 == 1) {
    std::string m = a.substr(0, rng.below(a.size() + 1));
    *what = "truncate to " + std::to_string(m.size());
    return m;
  }
  const std::size_t head = rng.below(a.size() + 1);
  const std::size_t tail = rng.below(b.size() + 1);
  *what = "splice a[0," + std::to_string(head) + ") + b[" +
          std::to_string(tail) + ",)";
  return a.substr(0, head) + b.substr(tail);
}

/// An edit error quotes its command with each control byte but tab written
/// as \xNN.
std::string quoted(const std::string& command) {
  std::string out = " in \"";
  for (const char c : command) {
    const auto u = static_cast<unsigned char>(c);
    char hex[5];
    std::snprintf(hex, sizeof hex, "\\x%02x", u);
    out += (u < 0x20 && c != '\t') || u == 0x7f ? std::string(hex)
                                                 : std::string(1, c);
  }
  return out + '"';
}

/// What a failed load or edit must leave as it was.
struct Snapshot {
  std::string image;
  std::size_t cells = 0;
  std::size_t constraints = 0;

  explicit Snapshot(const Library& lib)
      : image(LibraryWriter::to_string(lib)),
        cells(lib.cells().size()),
        constraints(lib.context().constraint_count()) {}
  bool operator==(const Snapshot&) const = default;
};

/// Load `text` into `lib`; on failure the error must name its line and the
/// library must be as it was.  Returns whether the load succeeded.
bool load_checked(Library& lib, const std::string& text) {
  const Snapshot before(lib);
  try {
    LibraryReader::read_string(lib, text);
    return true;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("library parse error, line ", 0), 0u) << what;
    EXPECT_TRUE(Snapshot(lib) == before) << what;
    return false;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::vector<std::string> load_corpus() {
  const std::string designs = std::string(STEMCP_SOURCE_DIR) + "/examples/designs/";
  return {slurp(designs + "pipeline.lib"), slurp(designs + "inverter.lib"),
          slurp(designs + "alu.lib"), workload::pipeline_design(),
          workload::selection_design()};
}

/// The edit lines DesignServiceTest.EditCommandsBuildADesign sends; applied
/// in order they build the design every edit mutant is applied to.
const std::vector<std::string> kEditLines = {
    "cell STAGE",
    "signal STAGE in input",
    "signal STAGE out output",
    "delay STAGE in out",
    "cell TOP",
    "signal TOP in input",
    "signal TOP out output",
    "spec TOP in out <= 100e-9",
    "subcell TOP u0 STAGE",
    "net TOP n_in",
    "io TOP n_in in",
    "conn TOP n_in u0 in",
    "net TOP n_out",
    "conn TOP n_out u0 out",
    "io TOP n_out out",
    "build-delays TOP",
    "leaf-delay STAGE in out 30e-9",
};

void build_edited_design(Library& lib) {
  for (const std::string& line : kEditLines) {
    ASSERT_NO_THROW(LibraryReader::edit(lib, line)) << line;
  }
}

// Each mutant of each library text is loaded into an empty library, then
// appended to a library holding another design (inverter.lib, or for
// inverter.lib itself alu.lib; no cell names are shared).
TEST(LibraryReaderFuzzTest, LoadsSurviveSeededMutations) {
  const std::vector<std::string> corpus = load_corpus();
  Rng rng{kSeed};
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    const std::string& a = corpus[c];
    const std::string& b = corpus[(c + 1) % corpus.size()];
    const std::string& base = corpus[c == 1 ? 2 : 1];
    for (int i = 0; i < kMutationsPerInput; ++i) {
      std::string what;
      const std::string m = mutate(a, b, i, rng, &what);
      SCOPED_TRACE("input " + std::to_string(c) + " mutation " +
                   std::to_string(i) + ": " + what);
      Library empty;
      if (load_checked(empty, m)) {
        // What loads saves to a fixed point: save(load(save(x))) == save(x).
        const std::string saved = LibraryWriter::to_string(empty);
        Library again;
        LibraryReader::read_string(again, saved);
        ASSERT_EQ(LibraryWriter::to_string(again), saved);
      }
      Library loaded;
      LibraryReader::read_string(loaded, base);
      load_checked(loaded, m);
      if (HasFailure()) return;
    }
  }
}

TEST(LibraryReaderFuzzTest, EditsSurviveSeededMutations) {
  Rng rng{kSeed};
  auto lib = std::make_unique<Library>();
  build_edited_design(*lib);
  for (int i = 0; i < 3 * kMutationsPerInput; ++i) {
    const std::string& a = kEditLines[rng.below(kEditLines.size())];
    const std::string& b = kEditLines[rng.below(kEditLines.size())];
    std::string what;
    const std::string m = mutate(a, b, i, rng, &what);
    SCOPED_TRACE("edit mutation " + std::to_string(i) + " of \"" + a +
                 "\": " + what);
    const Snapshot before(*lib);
    try {
      LibraryReader::edit(*lib, m);
    } catch (const std::runtime_error& e) {
      const std::string what_failed = e.what();
      ASSERT_EQ(what_failed.rfind("library edit error: ", 0), 0u)
          << what_failed;
      ASSERT_NE(what_failed.find(quoted(m)), std::string::npos) << what_failed;
      ASSERT_TRUE(Snapshot(*lib) == before) << what_failed;
      continue;
    }
    // An accepted edit leaves a design that saves to a fixed point, so a
    // checkpoint of it recovers to the same design.
    const std::string saved = LibraryWriter::to_string(*lib);
    Library again;
    LibraryReader::read_string(again, saved);
    ASSERT_EQ(LibraryWriter::to_string(again), saved);
    // It changed the design: start the next mutant from scratch.
    lib = std::make_unique<Library>();
    build_edited_design(*lib);
  }
}

}  // namespace
}  // namespace stemcp::env
