// Design database persistence: a line-oriented textual format for cell
// libraries (the role STEM's Smalltalk image/file-out played).
//
// The writer emits cells in definition order (leaf-first by construction);
// the reader rebuilds classes, interfaces, user-entered characteristics,
// structure and delay specifications, re-instantiating the implied
// constraint networks as it goes — loading a design re-checks it.  The
// reader is also the one way to edit a design: an edit command runs the
// same statement a library file would, on the live constraint network.
#pragma once

#include <iosfwd>
#include <string>

#include "stem/library.h"

namespace stemcp::env {

class LibraryWriter {
 public:
  /// Serialize every cell of the library.
  static void write(const Library& lib, std::ostream& out);
  static std::string to_string(const Library& lib);
};

class LibraryReader {
 public:
  /// Parse into `lib` in place: its context, type registry and cells.
  /// Throws std::runtime_error carrying the line number and the offending
  /// line's text on malformed input, and on any statement the design
  /// database refuses.  A failed read destroys every cell and constraint it
  /// made, so `lib`'s design (cells, constraints, values) is as it was; the
  /// engine's counters, violation log and traces keep what the read did.
  /// `read` takes the rest of `in` first, then reads it as `read_string`
  /// does: each line in place, as a view of the one string.
  static void read(Library& lib, std::istream& in);
  static void read_string(Library& lib, const std::string& text);

  /// Apply one edit command by running the library statement it names
  /// inside the named cell (docs/FORMAT.md "Edit commands") and return that
  /// statement's propagation status.  Throws std::runtime_error quoting the
  /// command, before anything changes, when the command is malformed or the
  /// design database refuses it.
  static core::Status edit(Library& lib, const std::string& command);
};

}  // namespace stemcp::env
