// Golden save images.  LibraryWriter's text for every example design, the
// two workload designs and a generated two-level hierarchy was captured
// once and committed under tests/stem/golden/; the writer must still
// produce those bytes exactly.  Checkpoints and `save` responses carry this
// text, and `save(load(save(x))) == save(x)` alone would not notice a
// writer that changed every image the same way.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "golden_designs.h"
#include "stem/io.h"
#include "stem/stem.h"
#include "workload/synth.h"

namespace stemcp::env {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Loads `text` into a library named "golden" (the name the images were
/// captured under) and checks both writer entry points against the image.
void expect_saves_as_image(const std::string& text, const std::string& image) {
  Library lib("golden");
  LibraryReader::read_string(lib, text);
  const std::string golden = read_file(std::string(STEMCP_SOURCE_DIR) +
                                       "/tests/stem/golden/" + image + ".lib");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(LibraryWriter::to_string(lib), golden);
  std::ostringstream streamed;
  LibraryWriter::write(lib, streamed);
  EXPECT_EQ(streamed.str(), golden);
}

TEST(GoldenSaveTest, ExampleDesignsSaveAsCaptured) {
  for (const char* name : {"alu", "inverter", "pipeline"}) {
    SCOPED_TRACE(name);
    expect_saves_as_image(read_file(std::string(STEMCP_SOURCE_DIR) +
                                    "/examples/designs/" + name + ".lib"),
                          std::string("example_") + name);
  }
}

TEST(GoldenSaveTest, WorkloadDesignsSaveAsCaptured) {
  expect_saves_as_image(workload::pipeline_design(), "workload_pipeline");
  expect_saves_as_image(workload::selection_design(), "workload_selection");
}

TEST(GoldenSaveTest, SeventeenDigitHierarchySavesAsCaptured) {
  expect_saves_as_image(golden::two_level_hierarchy(), "two_level_hierarchy");
}

// The reader takes CRLF line ends as it always has ('\r' is whitespace):
// the same design, so the same image.
TEST(GoldenSaveTest, CrlfLibraryTextSavesAsItsLfImage) {
  std::string crlf;
  for (const char c : golden::two_level_hierarchy()) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  expect_saves_as_image(crlf, "two_level_hierarchy");
}

// Reading through a stream and through a string builds the same design.
TEST(GoldenSaveTest, StreamReadMatchesStringRead) {
  Library lib("golden");
  std::istringstream in(golden::two_level_hierarchy());
  LibraryReader::read(lib, in);
  Library expected("golden");
  LibraryReader::read_string(expected, golden::two_level_hierarchy());
  EXPECT_EQ(LibraryWriter::to_string(lib), LibraryWriter::to_string(expected));
}

}  // namespace
}  // namespace stemcp::env
