// Durability layer, part 2: atomic files and checkpoints.
//
// A checkpoint is an ordinary library file (LibraryWriter output) preceded
// by one or two comment lines:
//
//   # stemcp-checkpoint seq <N> session <name> options [<opt>...]
//   # stemcp-user-values <batch-assign request line>
//
// Because '#' lines are comments to LibraryReader, a checkpoint file is
// directly loadable as a library AND self-describing to recovery: <N> is
// the sequence number of the last journal record whose effect the snapshot
// contains (replay skips records with seq <= N — which also makes a crash
// BETWEEN checkpoint-rename and journal-truncate harmless), <name> the
// session it snapshots, and the options the flags the session was opened
// with ("metrics" / "trace") followed by "fsync <journal options>".  The
// optional second line re-asserts the session's #USER values, which the
// library text does not carry; recovery runs it right after the load.
//
// Every file written here goes through atomic_write_file: write the full
// contents to "<path>.tmp", fsync, then rename(2) over the target.  A crash
// at any instant leaves either the old complete file or the new complete
// file — never a truncated hybrid.
#pragma once

#include <cstdint>
#include <string>

namespace stemcp::persist {

/// Write `contents` to `path` atomically (tmp file + fsync + rename).
/// Returns false with `error` set on any I/O failure; the target file is
/// never left partially written.
bool atomic_write_file(const std::string& path, const std::string& contents,
                       std::string* error);

/// Slurp `path`.  Returns false with `error` set when unreadable.
bool read_file(const std::string& path, std::string* out, std::string* error);

/// Create `path` and every missing ancestor (mkdir -p).  Used by the service
/// tier to carve per-shard journal namespaces ("<root>/shard-<i>/...").
/// Returns false with `error` set when a component cannot be created.
bool ensure_directories(const std::string& path, std::string* error);

/// Durable-state file naming: one base path yields the checkpoint and the
/// journal that continues it.
std::string checkpoint_path(const std::string& base);  // "<base>.ckpt"
std::string journal_path(const std::string& base);     // "<base>.journal"

struct CheckpointMeta {
  std::uint64_t seq = 0;    ///< last journal seq folded into the snapshot
  std::string session;      ///< session name the snapshot belongs to
  std::string options;      ///< open options, space separated (may be empty)
  std::string user_values;  ///< batch-assign request line (may be empty)
};

/// Render the "# stemcp-checkpoint ..." header line, and the user-values
/// line when there is one (newlines included).
std::string encode_checkpoint_header(const CheckpointMeta& meta);

/// Parse the header (and user-values) lines out of checkpoint file `text`.
/// Returns false when the first line is not a checkpoint header.
bool parse_checkpoint_header(const std::string& text, CheckpointMeta* out);

/// Atomically write checkpoint file: header + `library_text`.
bool write_checkpoint(const std::string& path, const CheckpointMeta& meta,
                      const std::string& library_text, std::string* error);

}  // namespace stemcp::persist
