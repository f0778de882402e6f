/// \file segment_log.h
/// Durable append-only log — the storage subsystem under `runtime/journal`
/// and `service/registry`. One log is a *store directory* holding:
///
///   manifest.jsonl        the segment chain (see below)
///   segment-<seq>.jsonl   record segments; the chain's last one takes appends
///   lock                  flock(2) coordination file
///
/// Records are JSONL lines appended with a single O_APPEND write(2), so any
/// number of processes sharing the directory interleave whole lines only:
/// replay order is a total order, which the journal's lease
/// append-then-verify relies on. A store this build creates is one growing
/// segment: its manifest holds the single record `{"op":"open","seq":0}`,
/// written once when the store is created and never again.
///
/// Earlier builds rotated and compacted, so a store they wrote can hold a
/// longer chain. The reader folds every manifest record those builds wrote,
/// in file order (duplicates are idempotent):
///   {"op":"config", ...}             the creator's rotation options; ignored
///   {"op":"open", "seq":N}           segment N is the new active tail
///                                    (implicitly seals the previous one)
///   {"op":"compact", "seq":S, "first":A, "last":B, ...}
///                                    snapshot S replaces the contiguous
///                                    chain run A..B
/// Such a store replays in chain order and takes appends on its last
/// segment; segments and snapshot drafts outside the chain are ignored.
/// Writers of different builds on one store are not supported.
///
/// Concurrency protocol (multi-process, crash-safe):
///  - appenders hold a SHARED flock on `lock` for the duration of one
///    append (one write of one line);
///  - creating the manifest and healing a torn tail hold the EXCLUSIVE
///    flock. The kernel releases flocks when a process dies, so a crashed
///    writer never wedges the store.
///
/// Cursors are a single integer: 0 means "start of the chain"; otherwise
/// `((seq + 1) << 33) | byte_offset` — under 2^53, so they survive the
/// JSON/double round-trip of the control plane's `?cursor=` parameter, and
/// a segment is limited to 8 GiB. A cursor that names no segment of the log
/// (any nonzero value below 2^33, for one) is rejected with `bad_argument`.
/// A cursor into a segment an earlier build compacted away resolves to the
/// start of the covering snapshot (at-least-once re-delivery, convergent for
/// latest-wins/fold consumers).

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

/// No settings: a store is one growing segment. Kept so callers can still
/// spell `segment_log(dir, {}, label)`.
struct log_options {};

/// Encode/decode the (segment seq, byte offset) pair into the single-integer
/// wire cursor. Exposed for tests; 0 is "start of chain" and never encoded.
/// `encode_cursor` throws `io_error` for an offset of 2^33 (8 GiB) or more,
/// which the cursor cannot represent.
std::uint64_t encode_cursor(std::uint64_t seq, std::uint64_t offset);
void decode_cursor(std::uint64_t cursor, std::uint64_t& seq, std::uint64_t& offset);

/// Cut a crash-torn trailing fragment (bytes after the last newline) off the
/// file at `path`, so a fresh append cannot merge into it. Reads only the
/// last byte unless the tail is torn; a missing file is left alone. The
/// caller holds whatever lock keeps appenders out. Returns the bytes cut.
std::uint64_t heal_torn_tail(const std::string& path, const std::string& label);

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

/// An append-only log over one store directory. Instances are the *writer*
/// handle; reads also go through the static functions so pollers in other
/// processes never need an instance.
class segment_log {
 public:
  /// True when `path` is a store directory (its manifest exists).
  static bool is_store_dir(const std::string& path);

  /// Open (creating if needed) the store at `dir`, under the exclusive
  /// lock: heal a torn manifest tail, write the `open` record when the
  /// manifest names no segment, and fold it once — no writer of this build
  /// changes it afterwards.
  segment_log(std::string dir, log_options = {}, std::string label = "store");
  ~segment_log();

  segment_log(const segment_log&) = delete;
  segment_log& operator=(const segment_log&) = delete;

  /// Append one record (`line` has no trailing newline): a single O_APPEND
  /// write under the shared lock, flushed to the fd before returning. The
  /// handle's first append heals a torn tail of the last segment first.
  void append(const std::string& line);

  /// Run `fn` holding the store's exclusive lock (and the instance mutex).
  /// `append`/read calls from inside `fn` skip re-locking — this is how the
  /// registry serializes cross-process submits (sync, mint id, append) as
  /// one atomic section.
  void with_exclusive(const std::function<void()>& fn);

  /// Instance read (usable inside `with_exclusive` without self-deadlock):
  /// complete lines after `cursor`, advancing it. `max_lines` 0 = no cap.
  read_batch read_since(std::uint64_t cursor, std::size_t max_lines = 0);

  const std::string& dir() const { return dir_; }

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
  struct held_lock;  ///< RAII over acquire()/release()
  void acquire(bool exclusive);
  void release();

  std::string dir_;
  std::string label_;

  std::recursive_mutex mutex_;
  int lock_fd_ = -1;
  int lock_depth_ = 0;          ///< nested acquire() count (mutex-protected)
  bool lock_exclusive_ = false; ///< the held flock is LOCK_EX

  std::unique_ptr<manifest_state> state_;  ///< the manifest, folded at open
  std::string active_path_;     ///< the chain's last segment
  int active_fd_ = -1;          ///< O_APPEND on it, opened by the first append
  int tail_fd_ = -1;            ///< read fd on it, opened by the first read

  obs::counter* appends_;       ///< `store.appends{log=label}`
};

}  // namespace boson::store
