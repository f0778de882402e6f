/// \file segment_log.h
/// Durable segmented append-only log — the storage subsystem under
/// `runtime/journal` and `service/registry`. One log is a *store directory*
/// holding:
///
///   manifest.jsonl        the segment chain protocol (see below)
///   segment-<seq>.jsonl   immutable-once-sealed record segments
///   lock                  flock(2) coordination file
///
/// Records are JSONL lines appended with a single O_APPEND write(2), so any
/// number of processes sharing the directory interleave whole lines only:
/// replay order is a total order, which the journal's lease
/// append-then-verify relies on. The active segment is rotated once it
/// exceeds a byte/record threshold, sealed segments can be *compacted*
/// (folded into a snapshot segment, crash-safe via temp+rename), and
/// replaced segments are GC'd — so replay and poll cost track live state,
/// not total history.
///
/// Concurrency protocol (multi-process, crash-safe):
///  - appenders hold a SHARED flock on `lock` for the duration of one
///    append (verify the active segment, write one line);
///  - rotation, compaction, healing, and manifest writes hold the EXCLUSIVE
///    flock. The kernel releases flocks when a process dies, so a crashed
///    rotator never wedges the store.
///  - manifest appends are append-then-verify: the writer re-reads its own
///    record from the file before acting on it.
///
/// Manifest records (fold in file order; duplicates are idempotent):
///   {"op":"config", "segment_bytes":B, "segment_records":R,
///    "compact_segments":C}            the creator's options; every attacher
///                                    adopts them
///   {"op":"open", "seq":N}           segment N is the new active tail
///                                    (implicitly seals the previous one)
///   {"op":"compact", "seq":S, "first":A, "last":B, ...}
///                                    snapshot S replaces the contiguous
///                                    chain run A..B
///
/// Segment sequence numbers are minted monotonically and NEVER reused
/// (snapshots get fresh seqs), so a cursor's seq uniquely identifies one
/// file ever created; chain order comes from the manifest, not seq order.
///
/// Cursors are a single integer: 0 means "start of the chain"; otherwise
/// `((seq + 1) << 33) | byte_offset` — under 2^53, so they survive the
/// JSON/double round-trip of the control plane's `?cursor=` parameter. A
/// cursor that names no segment of the log (any nonzero value below 2^33,
/// for one) is rejected with `bad_argument`. Because segments are immutable
/// once sealed and seqs are never reused, a cursor into any still-existing
/// segment stays exactly valid across rotation *and* compaction; a cursor
/// into a compacted-away segment resolves to the start of the covering
/// snapshot (at-least-once re-delivery, convergent for latest-wins/fold
/// consumers).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace boson::obs {
class counter;
}

namespace boson::store {

struct log_options {
  std::size_t segment_bytes = 0;    ///< rotate the active segment at >= bytes (0: never)
  std::size_t segment_records = 0;  ///< rotate at >= records (0: never)
  std::size_t compact_segments = 0; ///< `should_compact` needs sealed count >= (0: never)
};

/// The options every production log is created with (the campaign registry
/// and each campaign journal): modest rotation keeps replay cost
/// proportional to live state, because the fold runs once four sealed
/// segments accumulate (see `should_compact` for the size rule).
inline constexpr log_options default_log_options{256 * 1024, 1024, 4};

/// Compaction fold: receives every line of the sealed segments in replay
/// order and returns the subsequence to keep (verbatim lines — a snapshot
/// must preserve its consumers' fold state bit-for-bit; see
/// `runtime::journal::compaction_fold` for the journal's self-verifying
/// fold). Returning the input unchanged degrades compaction to a pure
/// segment merge, which is always safe.
using compaction_fold =
    std::function<std::vector<std::string>(const std::vector<std::string>&)>;

/// Test-only crash hook, called at named fault points ("rotate:before_manifest",
/// "compact:after_tmp", ...). Forked test children install a hook that
/// SIGKILLs themselves to exercise crash-during-rotation/compaction healing.
void set_crash_hook(std::function<void(const char*)> hook);

/// Call the crash hook (if one is installed) at the named fault point.
void crash_point(const char* point);

/// Encode/decode the (segment seq, byte offset) pair into the single-integer
/// wire cursor. Exposed for tests; 0 is "start of chain" and never encoded.
std::uint64_t encode_cursor(std::uint64_t seq, std::uint64_t offset);
void decode_cursor(std::uint64_t cursor, std::uint64_t& seq, std::uint64_t& offset);

/// One incremental read: complete (newline-terminated), non-blank lines
/// after a cursor, each paired with the cursor positioned *after* it —
/// what a caller must persist to make that line the last one consumed.
struct read_batch {
  std::vector<std::string> lines;
  std::vector<std::uint64_t> cursors;  ///< cursors[i] = position after lines[i]
  std::uint64_t end_cursor = 0;        ///< position after everything consumed
};

/// The fold of `manifest.jsonl` (implementation detail; see segment_log.cpp).
struct manifest_state;

/// A segmented append-only log over one store directory. Instances are the
/// *writer* handle (append / rotate / compact); reads go through the static
/// functions so pollers in other processes never need an instance.
class segment_log {
 public:
  /// True when `path` is a store directory (its manifest exists).
  static bool is_store_dir(const std::string& path);

  /// Open (creating if needed) the store at `dir`. Creation writes `opts`
  /// as the manifest's config record plus the first `open` record; an
  /// attacher ignores `opts` and adopts the config record, so every process
  /// rotates and compacts one store the same way.
  /// Healing (torn active-segment/manifest tails) and orphan GC run under
  /// the exclusive lock before the constructor returns.
  segment_log(std::string dir, log_options opts = {}, std::string label = "store");
  ~segment_log();

  segment_log(const segment_log&) = delete;
  segment_log& operator=(const segment_log&) = delete;

  /// Append one record (`line` has no trailing newline): a single O_APPEND
  /// write under the shared lock, flushed to the fd before returning.
  /// Rotates afterwards when the active segment crossed a threshold.
  void append(const std::string& line);

  /// Run `fn` holding the store's exclusive lock (and the instance mutex).
  /// `append`/read calls from inside `fn` skip re-locking — this is how the
  /// registry serializes cross-process submits (sync, mint id, append) as
  /// one atomic section.
  void with_exclusive(const std::function<void()>& fn);

  /// True when the sealed-segment count reached `compact_segments` and the
  /// never-folded segments `compact` would fold hold at least as many bytes
  /// as the snapshot they would be merged with — so a fold that drops
  /// nothing costs amortized linear work, and a lone snapshot is never
  /// re-folded.
  bool should_compact();

  /// Fold every sealed segment except the newest into one snapshot
  /// segment: read their lines, apply `fold`, write the snapshot via
  /// temp+rename, append the manifest `compact` record (append-then-verify),
  /// then unlink the replaced segments. The newest sealed segment is left
  /// alone so a poller that reads at least once per rotation never has its
  /// cursor compacted away. Crash-safe at every step — until the manifest
  /// record lands the store replays exactly as before. Returns the number
  /// of records compacted away (0, writing nothing, with fewer than two
  /// sealed segments or when every segment to fold is already a snapshot).
  std::size_t compact(const compaction_fold& fold);

  /// Instance read (usable inside `with_exclusive` without self-deadlock):
  /// complete lines after `cursor`, advancing it. `max_lines` 0 = no cap.
  read_batch read_since(std::uint64_t cursor, std::size_t max_lines = 0);

  const std::string& dir() const { return dir_; }
  const log_options& options() const { return opts_; }

  /// Segments currently in the chain (sealed + active). Fresh manifest fold.
  std::size_t segment_count();

  // ---- static readers (any process; shared lock per call) ----

  /// Every complete line of the whole chain, in replay order.
  static std::vector<std::string> read_all(const std::string& dir,
                                           const std::string& label);

  /// Complete lines after `cursor` (0 = chain start), `max_lines` 0 = no
  /// cap. The returned batch carries per-line cursors so callers with a
  /// deferred-failure contract (journal::since) can stop mid-batch.
  static read_batch read_since_dir(const std::string& dir, const std::string& label,
                                   std::uint64_t cursor, std::size_t max_lines = 0);

 private:
  void acquire(bool exclusive);
  void release();
  void refresh_locked();
  bool ensure_active_locked();  ///< false: active tail is torn, heal under EX
  void heal_active_locked();    ///< requires the exclusive lock
  void rotate_locked();         ///< requires the exclusive lock
  /// EX; one or more newline-separated records, append-then-verify, then
  /// fsync unless `sync` is false.
  void append_manifest_locked(const std::string& records, bool sync = true);
  std::size_t gc_locked();      ///< unlink non-chain segments + temps (EX)

  std::string dir_;
  std::string label_;
  log_options opts_;

  std::recursive_mutex mutex_;
  int lock_fd_ = -1;
  int lock_depth_ = 0;          ///< nested acquire() count (mutex-protected)
  bool lock_exclusive_ = false; ///< the held flock is LOCK_EX

  int manifest_fd_ = -1;        ///< O_RDWR|O_APPEND, open for the lifetime

  int active_fd_ = -1;
  std::uint64_t active_seq_ = 0;
  std::size_t active_bytes_ = 0;
  std::size_t active_records_ = 0;

  int tail_fd_ = -1;            ///< read fd on the chain's last segment
  std::uint64_t tail_seq_ = 0;

  std::unique_ptr<manifest_state> state_;  ///< cached manifest fold
  std::uintmax_t manifest_bytes_ = 0;      ///< manifest size at last fold

  obs::counter* appends_;       ///< `store.appends{log=label}`
};

}  // namespace boson::store
