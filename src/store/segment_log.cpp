#include "store/segment_log.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "io/json.h"
#include "obs/metrics.h"

namespace fs = std::filesystem;

namespace boson::store {

namespace {

constexpr std::uint64_t kOffsetBits = 33;  ///< < 8 GiB per segment
constexpr std::uint64_t kOffsetMask = (std::uint64_t(1) << kOffsetBits) - 1;

std::string manifest_file(const std::string& dir) {
  return (fs::path(dir) / "manifest.jsonl").string();
}

std::string lock_file(const std::string& dir) {
  return (fs::path(dir) / "lock").string();
}

std::string segment_file(const std::string& dir, std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof name, "segment-%06llu.jsonl",
                static_cast<unsigned long long>(seq));
  return (fs::path(dir) / name).string();
}

/// Closes a descriptor when the scope ends, however it ends.
struct fd_closer {
  int fd;
  ~fd_closer() { ::close(fd); }
};

void write_fully(int fd, const std::string& bytes, const std::string& label,
                 const std::string& path) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw io_error(label + ": append to '" + path + "' failed");
    }
    written += static_cast<std::size_t>(n);
  }
}

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

std::uint64_t encode_cursor(std::uint64_t seq, std::uint64_t offset) {
  if (offset > kOffsetMask)
    throw io_error("store: byte offset " + std::to_string(offset) +
                   " does not fit a cursor (segments are limited to 8 GiB)");
  return ((seq + 1) << kOffsetBits) | offset;
}

void decode_cursor(std::uint64_t cursor, std::uint64_t& seq, std::uint64_t& offset) {
  seq = (cursor >> kOffsetBits) - 1;
  offset = cursor & kOffsetMask;
}

std::uint64_t heal_torn_tail(const std::string& path, const std::string& label) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return 0;
    throw io_error(label + ": cannot open '" + path + "'");
  }
  const fd_closer closer{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0) throw io_error(label + ": cannot stat '" + path + "'");
  const auto size = static_cast<std::uint64_t>(st.st_size);

  // Scan back from the end for the last newline: the first read is the last
  // byte alone, so a clean tail costs one pread.
  char buf[4096];
  std::uint64_t keep = 0;  // no newline at all: the whole file is a fragment
  std::uint64_t end = size;
  std::size_t want = 1;
  while (end > 0) {
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(want, end));
    const ssize_t got = ::pread(fd, buf, n, static_cast<off_t>(end - n));
    if (got < 0 && errno == EINTR) continue;
    if (got != static_cast<ssize_t>(n))
      throw io_error(label + ": cannot read the tail of '" + path + "'");
    end -= n;
    const char* nl = buf + n;
    while (nl != buf && nl[-1] != '\n') --nl;
    if (nl != buf) {
      keep = end + static_cast<std::uint64_t>(nl - buf);
      break;
    }
    want = sizeof buf;
  }
  if (keep == size) return 0;
  log_warn(label, ": dropping torn trailing fragment of '", path, "' (", size - keep,
           " bytes)");
  if (::ftruncate(fd, static_cast<off_t>(keep)) != 0)
    throw io_error(label + ": cannot truncate torn tail of '" + path + "'");
  return size - keep;
}

// --------------------------------------------------------------- manifest --

/// The fold of `manifest.jsonl`: the current segment chain (replay order;
/// last entry is the active tail) and which seqs an earlier build compacted
/// into which snapshot.
struct manifest_state {
  std::vector<std::uint64_t> chain;
  std::map<std::uint64_t, std::uint64_t> compacted;  ///< seq -> covering snapshot

  bool in_chain(std::uint64_t seq) const {
    return std::find(chain.begin(), chain.end(), seq) != chain.end();
  }

  /// Resolve a cursor's seq to its chain position: the seq itself when it
  /// still exists, else the snapshot that covers it (transitively). Returns
  /// the chain index, with `restart` set when the caller must re-read from
  /// the segment's start (at-least-once re-delivery after compaction). A
  /// cursor naming a segment this log never had (a stale or made-up value)
  /// is the caller's mistake: `bad_argument`.
  std::size_t resolve(std::uint64_t cursor, std::uint64_t seq, bool& restart,
                      const std::string& label) const {
    restart = false;
    std::uint64_t s = seq;
    while (!in_chain(s)) {
      const auto it = compacted.find(s);
      if (it == compacted.end())
        throw bad_argument(label + ": cursor " + std::to_string(cursor) +
                           " names no segment of this log");
      s = it->second;
      restart = true;
    }
    return static_cast<std::size_t>(
        std::find(chain.begin(), chain.end(), s) - chain.begin());
  }
};

namespace {

/// Fold the manifest with the shared torn-tail contract: a malformed final
/// line (a writer died mid-append) is ignored; corruption with a successor
/// throws.
manifest_state fold_manifest(const std::string& dir, const std::string& label) {
  manifest_state state;
  std::ifstream in(manifest_file(dir), std::ios::binary);
  if (!in) return state;

  std::string line;
  std::size_t line_number = 0;
  std::string pending_error;
  while (std::getline(in, line)) {
    if (in.eof()) break;  // torn tail: ignore
    ++line_number;
    if (!pending_error.empty()) throw io_error(pending_error);
    if (blank(line)) continue;
    try {
      const io::json_value v = io::json_value::parse(line);
      const std::string op = v.at("op").as_string();
      if (op == "config") {
        // An earlier build's rotation options: nothing to adopt.
      } else if (op == "open") {
        const auto seq = static_cast<std::uint64_t>(v.at("seq").as_number());
        if (!state.in_chain(seq) && !state.compacted.count(seq))
          state.chain.push_back(seq);
      } else if (op == "compact") {
        const auto snap = static_cast<std::uint64_t>(v.at("seq").as_number());
        const auto first = static_cast<std::uint64_t>(v.at("first").as_number());
        const auto last = static_cast<std::uint64_t>(v.at("last").as_number());
        const auto a = std::find(state.chain.begin(), state.chain.end(), first);
        const auto b = std::find(state.chain.begin(), state.chain.end(), last);
        if (a != state.chain.end() && b != state.chain.end() && a <= b) {
          for (auto it = a; it != b + 1; ++it) state.compacted[*it] = snap;
          const auto pos = state.chain.erase(a, b + 1);
          state.chain.insert(pos, snap);
        }
      } else {
        throw bad_argument("unknown manifest op '" + op + "'");
      }
    } catch (const error& e) {
      pending_error = label + ": manifest '" + manifest_file(dir) + "' line " +
                      std::to_string(line_number) + ": " + e.what();
    }
  }
  return state;
}

/// Append the complete, non-blank lines of segment `seq` (open on `fd`)
/// from byte `consumed` to `batch`, advancing `consumed` and the cursors.
/// Returns false when the caller must stop here: `max_lines` was reached,
/// or the segment ends in an unterminated fragment (a torn tail or a racing
/// writer's append seen mid-flush) that stays ahead of the cursor for the
/// next poll.
bool scan_segment(int fd, std::uint64_t seq, std::uint64_t& consumed,
                  std::size_t max_lines, read_batch& batch, const std::string& label) {
  char buf[16384];
  std::string line;
  std::uint64_t pos = consumed;
  for (;;) {
    const ssize_t n = ::pread(fd, buf, sizeof buf, static_cast<off_t>(pos));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw io_error(label + ": cannot read segment " + std::to_string(seq));
    }
    if (n == 0) return line.empty();
    pos += static_cast<std::uint64_t>(n);
    const char* p = buf;
    const char* const end = buf + n;
    while (p < end) {
      const auto* nl = static_cast<const char*>(std::memchr(p, '\n', end - p));
      if (nl == nullptr) {
        line.append(p, end);
        break;
      }
      line.append(p, nl);
      p = nl + 1;
      consumed += static_cast<std::uint64_t>(line.size()) + 1;
      batch.end_cursor = encode_cursor(seq, consumed);
      if (!blank(line)) {
        batch.lines.push_back(std::move(line));
        batch.cursors.push_back(batch.end_cursor);
        if (max_lines != 0 && batch.lines.size() >= max_lines) return false;
      }
      line.clear();
    }
  }
}

/// Read complete, non-blank lines of the chain after `cursor`, advancing a
/// per-line cursor. The shared core of the static and instance readers;
/// `tail_fd`, when valid, is a read fd already open on the chain's last
/// segment (the instance keeps one so a poll costs no open(2)).
read_batch read_chain(const std::string& dir, const std::string& label,
                      const manifest_state& state, std::uint64_t cursor,
                      std::size_t max_lines, int tail_fd = -1) {
  read_batch batch;
  batch.end_cursor = cursor;
  if (state.chain.empty()) return batch;

  std::size_t index = 0;
  std::uint64_t offset = 0;
  if (cursor != 0) {
    std::uint64_t seq = 0;
    bool restart = false;
    decode_cursor(cursor, seq, offset);
    index = state.resolve(cursor, seq, restart, label);
    if (restart) offset = 0;  // compacted away: re-read the covering snapshot
  }

  for (; index < state.chain.size(); ++index) {
    const std::uint64_t seq = state.chain[index];
    const bool tail = index + 1 == state.chain.size();
    std::uint64_t consumed = offset;
    offset = 0;
    bool drained = true;
    if (tail && tail_fd >= 0) {
      drained = scan_segment(tail_fd, seq, consumed, max_lines, batch, label);
    } else {
      // A missing file is an empty segment that was never written to.
      const int fd = ::open(segment_file(dir, seq).c_str(), O_RDONLY | O_CLOEXEC);
      if (fd >= 0) {
        const fd_closer closer{fd};
        drained = scan_segment(fd, seq, consumed, max_lines, batch, label);
      }
    }
    if (!drained) return batch;
    // Segment drained cleanly. A sealed segment hands over to its successor;
    // the active (last) one is simply the end of the log for now.
    batch.end_cursor =
        tail ? encode_cursor(seq, consumed) : encode_cursor(state.chain[index + 1], 0);
  }
  return batch;
}

/// RAII over a standalone lock fd for the static readers.
class shared_dir_lock {
 public:
  explicit shared_dir_lock(const std::string& dir, const std::string& label) {
    fd_ = ::open(lock_file(dir).c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) throw io_error(label + ": cannot open '" + lock_file(dir) + "'");
    while (::flock(fd_, LOCK_SH) != 0)
      if (errno != EINTR) throw io_error(label + ": cannot lock '" + dir + "'");
  }
  ~shared_dir_lock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }

 private:
  int fd_ = -1;
};

}  // namespace

// ------------------------------------------------------------ segment_log --

struct segment_log::held_lock {
  segment_log& log;
  held_lock(segment_log& owner, bool exclusive) : log(owner) { log.acquire(exclusive); }
  ~held_lock() { log.release(); }
  held_lock(const held_lock&) = delete;
  held_lock& operator=(const held_lock&) = delete;
};

bool segment_log::is_store_dir(const std::string& path) {
  std::error_code ec;
  return fs::exists(manifest_file(path), ec);
}

segment_log::segment_log(std::string dir, log_options, std::string label)
    : dir_(std::move(dir)),
      label_(std::move(label)),
      appends_(&obs::registry::global().get_counter("store.appends", {{"log", label_}})) {
  require(!dir_.empty(), label_ + ": store directory must not be empty");
  fs::create_directories(dir_);
  lock_fd_ = ::open(lock_file(dir_).c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd_ < 0)
    throw io_error(label_ + ": cannot open '" + lock_file(dir_) + "'");

  try {
    const held_lock lock(*this, true);
    const std::string manifest = manifest_file(dir_);
    heal_torn_tail(manifest, label_);  // a creator died mid-write
    state_ = std::make_unique<manifest_state>(fold_manifest(dir_, label_));
    if (state_->chain.empty()) {
      // Creator (or a creator that died before its record landed): open
      // segment 0. No fsync: the record names no data yet, and should it be
      // lost with the machine the next open writes it again.
      const int fd =
          ::open(manifest.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
      if (fd < 0) throw io_error(label_ + ": cannot open '" + manifest + "'");
      const fd_closer closer{fd};
      write_fully(fd, "{\"op\":\"open\",\"seq\":0}\n", label_, manifest);
      state_->chain.push_back(0);
    }
    active_path_ = segment_file(dir_, state_->chain.back());
  } catch (...) {
    ::close(lock_fd_);
    throw;
  }
}

segment_log::~segment_log() {
  for (const int fd : {active_fd_, tail_fd_, lock_fd_})
    if (fd >= 0) ::close(fd);
}

void segment_log::acquire(bool exclusive) {
  if (lock_depth_ > 0) {
    // Nesting only ever asks for the same or a weaker lock (append/read
    // inside with_exclusive) — an upgrade here would silently drop LOCK_EX.
    require(lock_exclusive_ || !exclusive,
            label_ + ": lock upgrade inside a held section is not supported");
    ++lock_depth_;
    return;
  }
  while (::flock(lock_fd_, exclusive ? LOCK_EX : LOCK_SH) != 0)
    if (errno != EINTR) throw io_error(label_ + ": cannot lock '" + dir_ + "'");
  lock_exclusive_ = exclusive;
  lock_depth_ = 1;
}

void segment_log::release() {
  if (--lock_depth_ == 0) {
    ::flock(lock_fd_, LOCK_UN);
    lock_exclusive_ = false;
  }
}

void segment_log::append(const std::string& line) {
  const std::lock_guard<std::recursive_mutex> guard(mutex_);
  if (active_fd_ < 0) {
    // This handle's first append: cut a tail torn by a writer that died
    // before now, so the record cannot merge into it.
    const held_lock lock(*this, true);
    heal_torn_tail(active_path_, label_);
    active_fd_ =
        ::open(active_path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (active_fd_ < 0)
      throw io_error(label_ + ": cannot open '" + active_path_ + "' for appending");
  }
  {
    const held_lock lock(*this, false);
    write_fully(active_fd_, line + "\n", label_, active_path_);
  }
  appends_->inc();
}

void segment_log::with_exclusive(const std::function<void()>& fn) {
  const std::lock_guard<std::recursive_mutex> guard(mutex_);
  const held_lock lock(*this, true);
  fn();
}

read_batch segment_log::read_since(std::uint64_t cursor, std::size_t max_lines) {
  const std::lock_guard<std::recursive_mutex> guard(mutex_);
  const held_lock lock(*this, false);
  // Not there yet (nothing appended): retried by the next read.
  if (tail_fd_ < 0) tail_fd_ = ::open(active_path_.c_str(), O_RDONLY | O_CLOEXEC);
  return read_chain(dir_, label_, *state_, cursor, max_lines, tail_fd_);
}

std::vector<std::string> segment_log::read_all(const std::string& dir,
                                               const std::string& label) {
  return read_since_dir(dir, label, 0, 0).lines;
}

read_batch segment_log::read_since_dir(const std::string& dir,
                                       const std::string& label,
                                       std::uint64_t cursor, std::size_t max_lines) {
  read_batch batch;
  batch.end_cursor = cursor;
  if (!is_store_dir(dir)) return batch;  // no store yet: empty history
  const shared_dir_lock lock(dir, label);
  const manifest_state state = fold_manifest(dir, label);
  if (state.chain.empty()) return batch;
  return read_chain(dir, label, state, cursor, max_lines);
}

}  // namespace boson::store
