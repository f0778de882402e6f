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
#include <iterator>
#include <map>
#include <set>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "io/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fs = std::filesystem;

namespace boson::store {

namespace {

constexpr std::uint64_t kOffsetBits = 33;  ///< < 8 GiB per segment
constexpr std::uint64_t kOffsetMask = (std::uint64_t(1) << kOffsetBits) - 1;

std::function<void(const char*)> g_crash_hook;
std::mutex g_crash_mutex;

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

std::uintmax_t fd_size(int fd) {
  struct stat st {};
  return ::fstat(fd, &st) == 0 ? static_cast<std::uintmax_t>(st.st_size) : 0;
}

/// Truncate a crash-torn trailing fragment (no final newline) away, so a
/// fresh append cannot merge into it — the same heal-on-open contract as
/// `runtime::result_store`. Callers hold the exclusive lock.
void heal_file(const std::string& path, const std::string& label) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (text.empty() || text.back() == '\n') return;
  const std::size_t cut = text.find_last_of('\n');
  const std::uintmax_t keep = cut == std::string::npos ? 0 : cut + 1;
  log_warn(label, ": dropping torn trailing fragment of '", path, "' (",
           text.size() - keep, " bytes)");
  std::error_code ec;
  fs::resize_file(path, keep, ec);
  if (ec) throw io_error(label + ": cannot truncate torn tail of '" + path + "'");
}

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

void set_crash_hook(std::function<void(const char*)> hook) {
  const std::lock_guard<std::mutex> lock(g_crash_mutex);
  g_crash_hook = std::move(hook);
}

void crash_point(const char* point) {
  std::function<void(const char*)> hook;
  {
    const std::lock_guard<std::mutex> lock(g_crash_mutex);
    hook = g_crash_hook;
  }
  if (hook) hook(point);
}

std::uint64_t encode_cursor(std::uint64_t seq, std::uint64_t offset) {
  return ((seq + 1) << kOffsetBits) | (offset & kOffsetMask);
}

void decode_cursor(std::uint64_t cursor, std::uint64_t& seq, std::uint64_t& offset) {
  seq = (cursor >> kOffsetBits) - 1;
  offset = cursor & kOffsetMask;
}

// --------------------------------------------------------------- manifest --

/// The fold of `manifest.jsonl`: the current segment chain (replay order;
/// last entry is the active tail), which seqs were compacted into which
/// snapshot, the next seq to mint, and the creator's configuration.
struct manifest_state {
  std::vector<std::uint64_t> chain;
  std::map<std::uint64_t, std::uint64_t> compacted;  ///< seq -> covering snapshot
  std::set<std::uint64_t> snapshots;                 ///< seqs written by compaction
  std::uint64_t next_seq = 0;
  log_options config;
  bool has_config = false;

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
        if (const io::json_value* b = v.find("segment_bytes"))
          state.config.segment_bytes = static_cast<std::size_t>(b->as_number());
        if (const io::json_value* r = v.find("segment_records"))
          state.config.segment_records = static_cast<std::size_t>(r->as_number());
        if (const io::json_value* c = v.find("compact_segments"))
          state.config.compact_segments = static_cast<std::size_t>(c->as_number());
        state.has_config = true;
      } else if (op == "open") {
        const auto seq = static_cast<std::uint64_t>(v.at("seq").as_number());
        state.next_seq = std::max(state.next_seq, seq + 1);
        if (!state.in_chain(seq) && !state.compacted.count(seq))
          state.chain.push_back(seq);
      } else if (op == "compact") {
        const auto snap = static_cast<std::uint64_t>(v.at("seq").as_number());
        const auto first = static_cast<std::uint64_t>(v.at("first").as_number());
        const auto last = static_cast<std::uint64_t>(v.at("last").as_number());
        state.next_seq = std::max(state.next_seq, snap + 1);
        state.snapshots.insert(snap);
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
        try {
          drained = scan_segment(fd, seq, consumed, max_lines, batch, label);
        } catch (...) {
          ::close(fd);
          throw;
        }
        ::close(fd);
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

bool segment_log::is_store_dir(const std::string& path) {
  std::error_code ec;
  return fs::exists(manifest_file(path), ec);
}

segment_log::segment_log(std::string dir, log_options opts, std::string label)
    : dir_(std::move(dir)),
      label_(std::move(label)),
      opts_(opts),
      appends_(&obs::registry::global().get_counter("store.appends", {{"log", label_}})) {
  require(!dir_.empty(), label_ + ": store directory must not be empty");
  fs::create_directories(dir_);
  lock_fd_ = ::open(lock_file(dir_).c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd_ < 0)
    throw io_error(label_ + ": cannot open '" + lock_file(dir_) + "'");

  const std::lock_guard<std::recursive_mutex> guard(mutex_);
  acquire(true);
  try {
    // Kept open for the instance's lifetime: the manifest is only ever
    // appended to (or healed in place), so an fstat of this fd is the
    // cheap "did the chain change?" probe of every append and read.
    // O_RDWR, not O_WRONLY: the manifest append verification reads back
    // through it.
    const std::string manifest = manifest_file(dir_);
    manifest_fd_ = ::open(manifest.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (manifest_fd_ < 0) throw io_error(label_ + ": cannot open '" + manifest + "'");
    heal_file(manifest, label_);  // a manifest writer died mid-append
    if (fold_manifest(dir_, label_).chain.empty()) {
      // Creator (or a creator that died before its records landed): record
      // the configuration for attachers and open segment 0, in one write.
      // No fsync: these records name no data yet, and should they be lost
      // with the machine the next open writes them again.
      io::json_value config = io::json_value::object();
      config["op"] = "config";
      config["segment_bytes"] = opts_.segment_bytes;
      config["segment_records"] = opts_.segment_records;
      config["compact_segments"] = opts_.compact_segments;
      io::json_value open_record = io::json_value::object();
      open_record["op"] = "open";
      open_record["seq"] = 0;
      append_manifest_locked(config.dump(-1) + "\n" + open_record.dump(-1), false);
    }
    manifest_bytes_ = static_cast<std::uintmax_t>(-1);  // force the first fold
    refresh_locked();
    // Every process follows the creator's options, so workers joining a
    // shared data root rotate/compact the same way without flags of their own.
    if (state_->has_config) opts_ = state_->config;
    heal_active_locked();
    gc_locked();
  } catch (...) {
    release();
    if (manifest_fd_ >= 0) ::close(manifest_fd_);
    ::close(lock_fd_);
    throw;
  }
  release();
}

segment_log::~segment_log() {
  for (const int fd : {active_fd_, tail_fd_, manifest_fd_, lock_fd_})
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

void segment_log::refresh_locked() {
  const std::uintmax_t size = fd_size(manifest_fd_);
  if (!state_ || size != manifest_bytes_) {
    state_ = std::make_unique<manifest_state>(fold_manifest(dir_, label_));
    manifest_bytes_ = size;
    if (state_->chain.empty())
      throw io_error(label_ + ": manifest '" + manifest_file(dir_) +
                     "' has no open segment");
    if (active_fd_ >= 0 && active_seq_ != state_->chain.back()) {
      ::close(active_fd_);
      active_fd_ = -1;
    }
  }
}

bool segment_log::ensure_active_locked() {
  const std::uint64_t seq = state_->chain.back();
  if (active_fd_ >= 0 && active_seq_ == seq) return true;
  if (active_fd_ >= 0) ::close(active_fd_);
  active_fd_ = -1;

  const std::string path = segment_file(dir_, seq);
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) throw io_error(label_ + ": cannot open '" + path + "' for appending");

  // Heal-on-open: a torn tail means a writer died mid-append; truncating it
  // requires the exclusive lock, so report and let append() upgrade.
  std::size_t records = 0;
  std::size_t bytes = 0;
  bool torn = false;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      bytes = text.size();
      records = static_cast<std::size_t>(
          std::count(text.begin(), text.end(), '\n'));
      torn = !text.empty() && text.back() != '\n';
    }
  }
  if (torn) {
    ::close(fd);
    return false;
  }
  active_fd_ = fd;
  active_seq_ = seq;
  active_bytes_ = bytes;
  active_records_ = records;
  return true;
}

void segment_log::heal_active_locked() {
  heal_file(segment_file(dir_, state_->chain.back()), label_);
  if (active_fd_ >= 0) {
    ::close(active_fd_);  // cached size/count are stale after a truncation
    active_fd_ = -1;
  }
}

void segment_log::append(const std::string& line) {
  const std::lock_guard<std::recursive_mutex> guard(mutex_);
  const std::string data = line + "\n";
  bool want_rotate = false;
  for (;;) {
    acquire(false);
    try {
      refresh_locked();
      if (!ensure_active_locked()) {
        if (!lock_exclusive_) {
          release();
          acquire(true);
          refresh_locked();
          heal_active_locked();
          release();
          continue;  // retry under a fresh shared lock
        }
        heal_active_locked();
        require(ensure_active_locked(), label_ + ": active segment did not heal");
      }
      write_fully(active_fd_, data, label_, segment_file(dir_, active_seq_));
      // With O_APPEND the offset after our write is the segment's end,
      // other processes' appends included, so the byte threshold sees the
      // segment's true size.
      const off_t end = ::lseek(active_fd_, 0, SEEK_CUR);
      active_bytes_ = end >= 0 ? static_cast<std::size_t>(end) : active_bytes_ + data.size();
      ++active_records_;
      want_rotate =
          (opts_.segment_bytes != 0 && active_bytes_ >= opts_.segment_bytes) ||
          (opts_.segment_records != 0 && active_records_ >= opts_.segment_records);
    } catch (...) {
      release();
      throw;
    }
    release();
    break;
  }
  appends_->inc();

  if (want_rotate) {
    acquire(true);
    try {
      refresh_locked();
      // Re-check: another process may have rotated while we waited.
      if (ensure_active_locked() &&
          ((opts_.segment_bytes != 0 && active_bytes_ >= opts_.segment_bytes) ||
           (opts_.segment_records != 0 && active_records_ >= opts_.segment_records)))
        rotate_locked();
    } catch (...) {
      release();
      throw;
    }
    release();
  }
}

void segment_log::rotate_locked() {
  obs::span span("store.rotate", "store");
  // Seal the tail torn-free: sealed segments are immutable and must replay
  // without the torn-tail escape hatch.
  heal_active_locked();
  crash_point("rotate:before_manifest");
  io::json_value record = io::json_value::object();
  record["op"] = "open";
  record["seq"] = static_cast<double>(state_->next_seq);
  append_manifest_locked(record.dump(-1));
  crash_point("rotate:after_manifest");
  manifest_bytes_ = static_cast<std::uintmax_t>(-1);
  refresh_locked();
  obs::registry::global().get_counter("store.rotations", {{"log", label_}}).inc();
  log_debug(label_, ": rotated to segment ", state_->chain.back(), " in '", dir_, "'");
}

void segment_log::append_manifest_locked(const std::string& records, bool sync) {
  const std::string path = manifest_file(dir_);
  heal_file(path, label_);  // a manifest writer died mid-append
  const std::uintmax_t before = fd_size(manifest_fd_);
  const std::string data = records + "\n";
  write_fully(manifest_fd_, data, label_, path);
  // Append-then-verify: read our records back from where they must have
  // landed. Under the exclusive lock a mismatch means the write was torn or
  // the filesystem lied — either way the manifest must not be trusted.
  std::string check(data.size(), '\0');
  const ssize_t n =
      ::pread(manifest_fd_, check.data(), check.size(), static_cast<off_t>(before));
  if (n != static_cast<ssize_t>(check.size()) || check != data)
    throw io_error(label_ + ": manifest append verification failed in '" + path + "'");
  if (sync && ::fsync(manifest_fd_) != 0)
    throw io_error(label_ + ": cannot fsync '" + path + "'");
}

std::size_t segment_log::gc_locked() {
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("segment-", 0) != 0) continue;
    bool unreferenced = false;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      unreferenced = true;  // an interrupted compaction's snapshot draft
    } else {
      const std::size_t dot = name.find(".jsonl");
      if (dot == std::string::npos) continue;
      const std::string digits = name.substr(8, dot - 8);
      if (digits.empty() ||
          digits.find_first_not_of("0123456789") != std::string::npos)
        continue;
      const std::uint64_t seq = std::stoull(digits);
      // Every live segment is in the chain; anything else is either a
      // compacted-away segment or an orphan snapshot whose manifest record
      // never landed. Both are duplicates of chain data — reclaim them
      // before their seq could ever be confused with a fresh mint.
      unreferenced = !state_->in_chain(seq);
    }
    if (unreferenced) {
      std::error_code rm;
      if (fs::remove(entry.path(), rm)) ++removed;
    }
  }
  if (removed > 0)
    obs::registry::global()
        .get_counter("store.segments_gc", {{"log", label_}})
        .inc(removed);
  return removed;
}

void segment_log::with_exclusive(const std::function<void()>& fn) {
  const std::lock_guard<std::recursive_mutex> guard(mutex_);
  acquire(true);
  try {
    refresh_locked();
    fn();
  } catch (...) {
    release();
    throw;
  }
  release();
}

bool segment_log::should_compact() {
  if (opts_.compact_segments == 0) return false;
  const std::lock_guard<std::recursive_mutex> guard(mutex_);
  acquire(false);
  bool due = false;
  try {
    refresh_locked();
    const std::vector<std::uint64_t>& chain = state_->chain;
    if (chain.size() - 1 >= opts_.compact_segments) {
      // Size the run `compact` would fold: never-folded segments against
      // the snapshot bytes they would be merged with. Folding only once the
      // fresh part is at least as large keeps the total fold work within
      // twice the appended history even when nothing folds away, and a
      // lone snapshot is never re-folded.
      std::uintmax_t fresh = 0;
      std::uintmax_t folded = 0;
      for (std::size_t i = 0; i + 2 < chain.size(); ++i) {
        std::error_code ec;
        const std::uintmax_t bytes = fs::file_size(segment_file(dir_, chain[i]), ec);
        (state_->snapshots.count(chain[i]) ? folded : fresh) += ec ? 0 : bytes;
      }
      due = fresh > 0 && fresh >= folded;
    }
  } catch (...) {
    release();
    throw;
  }
  release();
  return due;
}

std::size_t segment_log::segment_count() {
  const std::lock_guard<std::recursive_mutex> guard(mutex_);
  acquire(false);
  std::size_t count = 0;
  try {
    refresh_locked();
    count = state_->chain.size();
  } catch (...) {
    release();
    throw;
  }
  release();
  return count;
}

std::size_t segment_log::compact(const compaction_fold& fold) {
  obs::span span("store.compact", "store");
  const std::lock_guard<std::recursive_mutex> guard(mutex_);
  acquire(true);
  std::size_t dropped = 0;
  try {
    refresh_locked();
    // Every sealed segment but the newest: a poller that reads at least
    // once per rotation keeps its cursor out of the fold, so it is never
    // handed the snapshot again.
    const std::vector<std::uint64_t> sealed(
        state_->chain.begin(), state_->chain.end() - std::min<std::size_t>(
                                                         2, state_->chain.size()));
    // Nothing to fold: fewer than two sealed segments, or only snapshots,
    // which an idempotent fold would rewrite unchanged.
    if (std::all_of(sealed.begin(), sealed.end(),
                    [this](std::uint64_t seq) { return state_->snapshots.count(seq) > 0; })) {
      release();
      return 0;
    }

    std::vector<std::string> input;
    for (const std::uint64_t seq : sealed) {
      std::ifstream in(segment_file(dir_, seq), std::ios::binary);
      if (!in) continue;  // an empty segment that was never written to
      std::string line;
      while (std::getline(in, line)) {
        if (in.eof()) break;  // sealed segments are healed; be defensive
        if (!blank(line)) input.push_back(line);
      }
    }

    std::vector<std::string> kept = fold(input);
    if (kept.size() > input.size())
      throw io_error(label_ + ": compaction fold grew the history (" +
                     std::to_string(input.size()) + " -> " +
                     std::to_string(kept.size()) + " records)");

    crash_point("compact:before_tmp");
    const std::uint64_t snap = state_->next_seq;
    const std::string snap_path = segment_file(dir_, snap);
    const std::string tmp_path = snap_path + ".tmp";
    {
      const int fd =
          ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
      if (fd < 0) throw io_error(label_ + ": cannot write '" + tmp_path + "'");
      try {
        std::string body;
        for (const std::string& line : kept) body += line + "\n";
        write_fully(fd, body, label_, tmp_path);
        if (::fsync(fd) != 0)
          throw io_error(label_ + ": cannot fsync '" + tmp_path + "'");
      } catch (...) {
        ::close(fd);
        throw;
      }
      ::close(fd);
    }
    crash_point("compact:after_tmp");
    fs::rename(tmp_path, snap_path);
    crash_point("compact:before_manifest");

    io::json_value record = io::json_value::object();
    record["op"] = "compact";
    record["seq"] = static_cast<double>(snap);
    record["first"] = static_cast<double>(sealed.front());
    record["last"] = static_cast<double>(sealed.back());
    record["in"] = input.size();
    record["kept"] = kept.size();
    append_manifest_locked(record.dump(-1));
    crash_point("compact:after_manifest");

    manifest_bytes_ = static_cast<std::uintmax_t>(-1);
    refresh_locked();
    gc_locked();

    dropped = input.size() - kept.size();
    auto& reg = obs::registry::global();
    reg.get_counter("store.compactions", {{"log", label_}}).inc();
    reg.get_counter("store.compaction_records_in", {{"log", label_}}).inc(input.size());
    reg.get_counter("store.compaction_records_out", {{"log", label_}}).inc(kept.size());
    log_info(label_, ": compacted ", sealed.size(), " segments (", input.size(),
             " -> ", kept.size(), " records) into segment ", snap, " in '", dir_, "'");
  } catch (...) {
    release();
    throw;
  }
  release();
  return dropped;
}

read_batch segment_log::read_since(std::uint64_t cursor, std::size_t max_lines) {
  const std::lock_guard<std::recursive_mutex> guard(mutex_);
  acquire(false);
  read_batch batch;
  try {
    refresh_locked();
    const std::uint64_t tail = state_->chain.back();
    if (tail_fd_ < 0 || tail_seq_ != tail) {
      if (tail_fd_ >= 0) ::close(tail_fd_);
      // Not there yet (nothing appended): retried by the next read.
      tail_fd_ = ::open(segment_file(dir_, tail).c_str(), O_RDONLY | O_CLOEXEC);
      tail_seq_ = tail;
    }
    batch = read_chain(dir_, label_, *state_, cursor, max_lines, tail_fd_);
  } catch (...) {
    release();
    throw;
  }
  release();
  return batch;
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
