#include "persist/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

namespace stemcp::persist {

namespace {

constexpr std::string_view kUserValues = "# stemcp-user-values ";

}  // namespace

bool atomic_write_file(const std::string& path, const std::string& contents,
                       std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot write '" + tmp + "': " + std::strerror(errno);
    }
    return false;
  }
  std::size_t done = 0;
  while (done < contents.size()) {
    const ssize_t n =
        ::write(fd, contents.data() + done, contents.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) {
        *error = "write to '" + tmp + "' failed: " + std::strerror(errno);
      }
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  // The data must be on disk BEFORE the rename publishes it, else a crash
  // could expose a renamed-but-empty file.
  if (::fsync(fd) != 0) {
    if (error != nullptr) {
      *error = "fsync of '" + tmp + "' failed: " + std::strerror(errno);
    }
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "rename '" + tmp + "' -> '" + path +
               "' failed: " + std::strerror(errno);
    }
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

bool read_file(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    if (error != nullptr) *error = "cannot read '" + path + "'";
    return false;
  }
  out->assign((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return true;
}

bool ensure_directories(const std::string& path, std::string* error) {
  if (path.empty()) return true;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    const std::string prefix = path.substr(0, pos);
    if (prefix.empty() || prefix == "/" || prefix == ".") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      if (error != nullptr) {
        *error = "mkdir '" + prefix + "' failed: " + std::strerror(errno);
      }
      return false;
    }
  }
  return true;
}

std::string checkpoint_path(const std::string& base) { return base + ".ckpt"; }
std::string journal_path(const std::string& base) { return base + ".journal"; }

std::string encode_checkpoint_header(const CheckpointMeta& meta) {
  std::ostringstream out;
  out << "# stemcp-checkpoint seq " << meta.seq << " session " << meta.session
      << " options";
  if (!meta.options.empty()) out << ' ' << meta.options;
  out << '\n';
  if (!meta.user_values.empty()) {
    out << kUserValues << meta.user_values << '\n';
  }
  return out.str();
}

bool parse_checkpoint_header(const std::string& text, CheckpointMeta* out) {
  *out = CheckpointMeta{};
  const std::size_t nl = text.find('\n');
  const std::string first = text.substr(0, nl);
  std::istringstream in(first);
  std::string hash, magic, kw_seq, kw_session, kw_options;
  if (!(in >> hash >> magic >> kw_seq >> out->seq >> kw_session >>
        out->session >> kw_options) ||
      hash != "#" || magic != "stemcp-checkpoint" || kw_seq != "seq" ||
      kw_session != "session" || kw_options != "options") {
    return false;
  }
  std::string opts;
  std::getline(in, opts);
  if (!opts.empty() && opts.front() == ' ') opts.erase(0, 1);
  out->options = opts;
  const std::size_t second = nl == std::string::npos ? nl : nl + 1;
  if (second != std::string::npos &&
      text.compare(second, kUserValues.size(), kUserValues) == 0) {
    const std::size_t at = second + kUserValues.size();
    out->user_values = text.substr(at, text.find('\n', at) - at);
  }
  return true;
}

bool write_checkpoint(const std::string& path, const CheckpointMeta& meta,
                      const std::string& library_text, std::string* error) {
  return atomic_write_file(path, encode_checkpoint_header(meta) + library_text,
                           error);
}

}  // namespace stemcp::persist
