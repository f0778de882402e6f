// Tests of the durable segmented log store (src/store) and the journal's
// ride on top of it: rotation + replay order, incremental cursors across
// rotation and compaction, config adoption by attaching processes, torn-tail
// healing, SIGKILL crashes at named fault points inside rotation and
// compaction (forked children; the parent verifies the survivors replay
// bit-identically), multi-process append interleaving, and the journal's
// self-verifying compaction fold.

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "io/json.h"
#include "runtime/journal.h"
#include "runtime/lease.h"
#include "store/segment_log.h"

namespace boson {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Fork a child running `fn`; the child never returns into gtest.
template <class Fn>
pid_t fork_child(Fn&& fn) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    fn();
    std::_Exit(0);
  }
  return pid;
}

enum class child_end { clean_exit, sigkilled, other };

child_end wait_child(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return child_end::clean_exit;
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) return child_end::sigkilled;
  return child_end::other;
}

/// SIGKILL the calling process when the named fault point is reached —
/// installed inside forked children to simulate a crash mid-operation.
void crash_at(const std::string& point) {
  store::set_crash_hook([point](const char* at) {
    if (point == at) ::kill(::getpid(), SIGKILL);
  });
}

std::string rec(int i) { return "{\"i\":" + std::to_string(i) + "}"; }

/// Keyed record for fold tests: latest line per key wins.
std::string keyed(int key, int round) {
  return "{\"k\":" + std::to_string(key) + ",\"round\":" + std::to_string(round) + "}";
}

std::vector<std::string> latest_per_key(const std::vector<std::string>& lines) {
  std::map<std::string, std::size_t> last;
  for (std::size_t i = 0; i < lines.size(); ++i)
    last[io::json_value::parse(lines[i]).at("k").dump(-1)] = i;
  std::vector<std::size_t> keep;
  for (const auto& [k, i] : last) keep.push_back(i);
  std::sort(keep.begin(), keep.end());
  std::vector<std::string> kept;
  for (const std::size_t i : keep) kept.push_back(lines[i]);
  return kept;
}

// ------------------------------------------------------ rotation + cursors ---

TEST(segment_log, rotates_by_record_count_and_replays_in_order) {
  const fs::path dir = fresh_dir("store_rotate");
  store::segment_log log(dir.string(), {0, 4, 0});
  for (int i = 0; i < 10; ++i) log.append(rec(i));
  EXPECT_GE(log.segment_count(), 3u);

  const auto lines = store::segment_log::read_all(dir.string(), "test");
  ASSERT_EQ(lines.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(lines[static_cast<std::size_t>(i)], rec(i));
}

TEST(segment_log, incremental_cursors_stay_exact_across_rotation) {
  const fs::path dir = fresh_dir("store_cursors");
  store::segment_log log(dir.string(), {0, 3, 0});

  std::uint64_t cursor = 0;
  std::vector<std::string> seen;
  for (int i = 0; i < 11; ++i) {
    log.append(rec(i));
    const store::read_batch batch =
        store::segment_log::read_since_dir(dir.string(), "test", cursor);
    for (const std::string& line : batch.lines) seen.push_back(line);
    cursor = batch.end_cursor;
  }
  ASSERT_EQ(seen.size(), 11u);
  for (int i = 0; i < 11; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], rec(i));
  EXPECT_TRUE(
      store::segment_log::read_since_dir(dir.string(), "test", cursor).lines.empty());
}

TEST(segment_log, max_lines_pages_through_the_chain_without_gaps) {
  const fs::path dir = fresh_dir("store_pages");
  store::segment_log log(dir.string(), {0, 3, 0});
  for (int i = 0; i < 10; ++i) log.append(rec(i));

  std::uint64_t cursor = 0;
  std::vector<std::string> seen;
  while (true) {
    const store::read_batch page =
        store::segment_log::read_since_dir(dir.string(), "test", cursor, 4);
    if (page.lines.empty()) break;
    EXPECT_LE(page.lines.size(), 4u);
    for (const std::string& line : page.lines) seen.push_back(line);
    cursor = page.end_cursor;
  }
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], rec(i));
}

TEST(segment_log, attacher_adopts_the_creators_config) {
  const fs::path dir = fresh_dir("store_config");
  { store::segment_log creator(dir.string(), {1024, 7, 3}); }

  // An attacher's own options are ignored: the store already exists.
  store::segment_log attached(dir.string(), {1, 1, 1});
  EXPECT_EQ(attached.options().segment_bytes, 1024u);
  EXPECT_EQ(attached.options().segment_records, 7u);
  EXPECT_EQ(attached.options().compact_segments, 3u);
}

TEST(segment_log, a_cursor_naming_no_segment_is_a_bad_argument) {
  const fs::path dir = fresh_dir("store_bad_cursor");
  store::segment_log log(dir.string());
  log.append(rec(0));
  EXPECT_EQ(store::segment_log::read_since_dir(dir.string(), "t", 0).lines.size(), 1u);
  // A byte offset (what a pre-store client may still hold) and a segment
  // that was never minted both name no segment.
  for (const std::uint64_t cursor : {std::uint64_t{5}, store::encode_cursor(99, 0)}) {
    try {
      (void)store::segment_log::read_since_dir(dir.string(), "t", cursor);
      FAIL() << "cursor " << cursor << " was accepted";
    } catch (const bad_argument& e) {
      EXPECT_NE(std::string(e.what()).find("cursor " + std::to_string(cursor)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(segment_log, heals_a_torn_active_tail_on_attach) {
  const fs::path dir = fresh_dir("store_torn");
  { // no rotation: all records land in segment 0
    store::segment_log log(dir.string());
    for (int i = 0; i < 3; ++i) log.append(rec(i));
  }
  std::ofstream(dir / "segment-000000.jsonl", std::ios::app) << "{\"torn\": tr";

  store::segment_log reopened(dir.string());
  reopened.append(rec(3));
  const auto lines = store::segment_log::read_all(dir.string(), "test");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[3], rec(3));
}

// ------------------------------------------------------------- compaction ---

TEST(segment_log, compaction_preserves_fold_state_and_live_cursors) {
  const fs::path dir = fresh_dir("store_compact");
  store::segment_log log(dir.string(), {0, 4, 2});
  for (int round = 0; round < 4; ++round)
    for (int key = 0; key < 4; ++key) log.append(keyed(key, round));

  const store::read_batch before =
      store::segment_log::read_since_dir(dir.string(), "test", 0);
  ASSERT_EQ(before.lines.size(), 16u);
  const std::uint64_t tail = before.end_cursor;
  const std::uint64_t early = before.cursors[0];  // inside the first segment

  ASSERT_TRUE(log.should_compact());
  const std::size_t folded = log.compact(&latest_per_key);
  EXPECT_GT(folded, 0u);

  // Whole-chain replay after compaction folds to the same latest-per-key
  // state as the full pre-compaction history.
  const auto after = store::segment_log::read_all(dir.string(), "test");
  EXPECT_LT(after.size(), before.lines.size());
  EXPECT_EQ(latest_per_key(after), latest_per_key(before.lines));

  // A cursor at the live tail stays exactly valid: only records appended
  // after it are delivered.
  log.append(keyed(7, 7));
  const store::read_batch resumed =
      store::segment_log::read_since_dir(dir.string(), "test", tail);
  ASSERT_EQ(resumed.lines.size(), 1u);
  EXPECT_EQ(resumed.lines[0], keyed(7, 7));

  // A cursor that had drained the compacted run's last segment resumes
  // right after the snapshot: nothing it already saw is re-delivered.
  const store::read_batch drained =
      store::segment_log::read_since_dir(dir.string(), "test", before.cursors.back());
  ASSERT_EQ(drained.lines.size(), 1u);
  EXPECT_EQ(drained.lines[0], keyed(7, 7));

  // A cursor into a compacted-away segment re-delivers from the covering
  // snapshot: at-least-once, and convergent for a latest-wins consumer.
  const store::read_batch redelivered =
      store::segment_log::read_since_dir(dir.string(), "test", early);
  EXPECT_GE(redelivered.lines.size(), 4u);
  std::vector<std::string> full = before.lines;
  full.push_back(keyed(7, 7));
  EXPECT_EQ(latest_per_key(redelivered.lines), latest_per_key(full));
}

TEST(segment_log, a_lone_snapshot_is_never_refolded) {
  const fs::path dir = fresh_dir("store_compact_once");
  store::segment_log log(dir.string(), {0, 2, 1});
  for (int i = 0; i < 6; ++i) log.append(keyed(i % 2, i));  // 3 sealed + empty active
  ASSERT_TRUE(log.should_compact());
  EXPECT_GT(log.compact(&latest_per_key), 0u);

  // [snapshot, newest sealed, active]: the run compaction would fold is the
  // snapshot alone, so neither the probe nor an explicit compact touches
  // the store, whatever the threshold.
  const std::uintmax_t manifest_bytes = fs::file_size(dir / "manifest.jsonl");
  EXPECT_FALSE(log.should_compact());
  EXPECT_EQ(log.compact(&latest_per_key), 0u);
  EXPECT_EQ(fs::file_size(dir / "manifest.jsonl"), manifest_bytes);

  // Folding resumes once the fresh sealed bytes match the snapshot's.
  for (int i = 0; i < 4; ++i) log.append(keyed(i % 2, 10 + i));
  EXPECT_TRUE(log.should_compact());
}

// ------------------------------------------------------- crash resilience ---

TEST(segment_log, sigkill_during_rotation_heals_and_loses_nothing) {
  for (const char* point : {"rotate:before_manifest", "rotate:after_manifest"}) {
    const fs::path dir = fresh_dir(std::string("store_crash_rotate_") +
                                   (std::string(point).find("before") !=
                                            std::string::npos
                                        ? "before"
                                        : "after"));
    {
      store::segment_log log(dir.string(), {0, 4, 0});
      for (int i = 0; i < 3; ++i) log.append(rec(i));
    }

    const pid_t pid = fork_child([&] {
      crash_at(point);
      store::segment_log log(dir.string());
      log.append(rec(3));  // crosses the threshold: rotation dies at `point`
    });
    ASSERT_EQ(wait_child(pid), child_end::sigkilled) << point;

    // Reattach: healing + GC run in the constructor; every append before the
    // crash survives exactly once and new appends continue.
    store::segment_log log(dir.string());
    log.append(rec(4));
    const auto lines = store::segment_log::read_all(dir.string(), "test");
    ASSERT_EQ(lines.size(), 5u) << point;
    for (int i = 0; i < 5; ++i)
      EXPECT_EQ(lines[static_cast<std::size_t>(i)], rec(i)) << point;
  }
}

TEST(segment_log, sigkill_before_compaction_commits_replays_bit_identical) {
  for (const char* point :
       {"compact:before_tmp", "compact:after_tmp", "compact:before_manifest"}) {
    const fs::path dir = fresh_dir("store_crash_compact");
    std::vector<std::string> expected;
    {
      store::segment_log log(dir.string(), {0, 3, 2});
      for (int round = 0; round < 3; ++round)
        for (int key = 0; key < 3; ++key) log.append(keyed(key, round));
      expected = store::segment_log::read_all(dir.string(), "test");
    }
    ASSERT_EQ(expected.size(), 9u);

    const pid_t pid = fork_child([&] {
      crash_at(point);
      store::segment_log log(dir.string());
      log.compact(&latest_per_key);
    });
    ASSERT_EQ(wait_child(pid), child_end::sigkilled) << point;

    // Until the manifest compact record lands, the chain replays exactly as
    // before — bit for bit.
    EXPECT_EQ(store::segment_log::read_all(dir.string(), "test"), expected) << point;

    // Reattaching GCs any snapshot temp the crash left behind.
    store::segment_log reopened(dir.string());
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().filename() == "lock") continue;
      EXPECT_EQ(entry.path().extension(), ".jsonl") << entry.path() << " at " << point;
    }
  }
}

TEST(segment_log, sigkill_after_compaction_commits_keeps_the_snapshot) {
  const fs::path dir = fresh_dir("store_crash_compact_commit");
  std::vector<std::string> full;
  {
    store::segment_log log(dir.string(), {0, 3, 2});
    for (int round = 0; round < 3; ++round)
      for (int key = 0; key < 3; ++key) log.append(keyed(key, round));
    full = store::segment_log::read_all(dir.string(), "test");
  }

  const pid_t pid = fork_child([&] {
    crash_at("compact:after_manifest");
    store::segment_log log(dir.string());
    log.compact(&latest_per_key);
  });
  ASSERT_EQ(wait_child(pid), child_end::sigkilled);

  // The manifest committed the snapshot before the crash: replay is the
  // folded state even though the replaced segments may still be on disk.
  EXPECT_EQ(latest_per_key(store::segment_log::read_all(dir.string(), "test")),
            latest_per_key(full));

  // Reattach GCs the replaced segments; replay is unchanged by GC.
  store::segment_log reopened(dir.string());
  EXPECT_EQ(latest_per_key(store::segment_log::read_all(dir.string(), "test")),
            latest_per_key(full));
}

// --------------------------------------------------- multi-process appends ---

TEST(segment_log, concurrent_appenders_interleave_whole_lines_across_rotation) {
  const fs::path dir = fresh_dir("store_concurrent");
  { store::segment_log creator(dir.string(), {0, 8, 0}); }

  constexpr int kChildren = 4;
  constexpr int kEach = 25;
  std::vector<pid_t> pids;
  for (int c = 0; c < kChildren; ++c) {
    pids.push_back(fork_child([&, c] {
      store::segment_log log(dir.string());
      for (int i = 0; i < kEach; ++i)
        log.append("{\"child\":" + std::to_string(c) + ",\"i\":" + std::to_string(i) +
                   "}");
    }));
  }
  for (const pid_t pid : pids) ASSERT_EQ(wait_child(pid), child_end::clean_exit);

  // Every line is complete and parseable; each child's lines appear in its
  // own append order; nothing was lost or torn by concurrent rotation.
  const auto lines = store::segment_log::read_all(dir.string(), "test");
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kChildren * kEach));
  std::map<int, int> next;
  for (const std::string& line : lines) {
    const io::json_value v = io::json_value::parse(line);
    const int child = static_cast<int>(v.at("child").as_number());
    EXPECT_EQ(static_cast<int>(v.at("i").as_number()), next[child]);
    ++next[child];
  }
  for (int c = 0; c < kChildren; ++c) EXPECT_EQ(next[c], kEach);
}

// ------------------------------------------------------ journal-on-store ---

runtime::journal_entry entry(std::size_t job, runtime::job_state state,
                             const std::string& worker = "", std::uint64_t lease = 0,
                             double deadline = 0.0, double stamp = 0.0,
                             std::size_t attempt = 0) {
  runtime::journal_entry e;
  e.job_index = job;
  e.job_name = "job" + std::to_string(job);
  e.state = state;
  e.worker = worker;
  e.lease_id = lease;
  e.deadline = deadline;
  e.stamp = stamp;
  e.attempt = attempt;
  return e;
}

TEST(journal_store, segmented_journal_round_trips_and_compacts) {
  const fs::path dir = fresh_dir("journal_store");
  const std::string path = runtime::journal_path(dir.string());
  // Small thresholds without a production knob: the journal attaches to a
  // store created beforehand and adopts its options.
  { store::segment_log creator(path, {0, 4, 2}, "journal"); }

  runtime::journal log(path);

  // A three-job history with enough traffic to rotate several times.
  using runtime::job_state;
  std::vector<runtime::journal_entry> history;
  for (std::size_t job = 0; job < 3; ++job) {
    history.push_back(entry(job, job_state::leased, "w1", job + 1, 10.0, 1.0, 1));
    history.push_back(entry(job, job_state::running, "w1", job + 1, 0.0, 1.5, 1));
    history.push_back(
        entry(job, job_state::lease_renewed, "w1", job + 1, 20.0, 2.0, 1));
    history.push_back(entry(job, job_state::checkpointed, "w1", job + 1, 0.0, 3.0, 1));
  }
  history.push_back(entry(0, job_state::completed, "w1", 1, 0.0, 4.0, 1));
  history.push_back(entry(1, job_state::lease_released, "w1", 2, 0.0, 4.5, 1));
  for (const auto& e : history) log.append(e);

  // Replay sees the full history in order through the store directory.
  const auto replayed = runtime::journal::replay(log.path());
  ASSERT_EQ(replayed.size(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(replayed[i].job_index, history[i].job_index);
    EXPECT_EQ(replayed[i].state, history[i].state);
  }

  // An incremental cursor parked at the tail stays valid across compaction.
  runtime::journal_cursor cursor;
  (void)runtime::journal::since(log.path(), cursor);
  EXPECT_GT(log.compact(), 0u);
  // Compacting again folds nothing and writes no manifest record.
  const std::uintmax_t manifest_bytes = fs::file_size(fs::path(path) / "manifest.jsonl");
  EXPECT_EQ(log.maybe_compact(), 0u);
  EXPECT_EQ(log.compact(), 0u);
  EXPECT_EQ(fs::file_size(fs::path(path) / "manifest.jsonl"), manifest_bytes);
  EXPECT_TRUE(runtime::journal::since(log.path(), cursor).empty());
  log.append(entry(2, job_state::completed, "w1", 3, 0.0, 5.0, 1));
  const auto fresh = runtime::journal::since(log.path(), cursor);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].state, job_state::completed);

  // The compacted chain resolves to the same lease state as the full one.
  runtime::lease_table folded;
  for (const auto& e : runtime::journal::replay(log.path())) folded.apply(e);
  runtime::lease_table truth;
  for (const auto& e : history) truth.apply(e);
  truth.apply(entry(2, job_state::completed, "w1", 3, 0.0, 5.0, 1));
  for (std::size_t job = 0; job < 3; ++job) {
    const auto a = folded.view(job);
    const auto b = truth.view(job);
    EXPECT_EQ(a.state, b.state) << "job " << job;
    EXPECT_EQ(a.worker, b.worker) << "job " << job;
    EXPECT_EQ(a.attempts, b.attempts) << "job " << job;
  }
}

TEST(journal_store, compaction_fold_is_lease_equivalent_and_idempotent) {
  using runtime::job_state;
  std::vector<runtime::journal_entry> history;
  // Job 0: full happy path with heartbeats — fold should drop the chatter.
  history.push_back(entry(0, job_state::leased, "w1", 1, 10.0, 1.0, 1));
  history.push_back(entry(0, job_state::running, "w1", 1, 0.0, 1.1, 1));
  for (int i = 0; i < 8; ++i)
    history.push_back(entry(0, job_state::lease_renewed, "w1", 1, 12.0 + i, 2.0 + i, 1));
  history.push_back(entry(0, job_state::completed, "w1", 1, 0.0, 11.0, 1));
  // Job 1: expiry + re-lease by another worker, still live.
  history.push_back(entry(1, job_state::leased, "w1", 2, 5.0, 1.0, 1));
  history.push_back(entry(1, job_state::lease_expired, "w2", 0, 0.0, 6.0, 1));
  history.push_back(entry(1, job_state::leased, "w2", 1, 16.0, 6.1, 2));
  history.push_back(entry(1, job_state::running, "w2", 1, 0.0, 6.2, 2));
  // Job 2: released back to pending.
  history.push_back(entry(2, job_state::leased, "w3", 1, 9.0, 1.0, 1));
  history.push_back(entry(2, job_state::lease_released, "w3", 1, 0.0, 2.0, 1));

  std::vector<std::string> lines;
  for (const auto& e : history) lines.push_back(e.to_json().dump(-1));
  const std::vector<std::string> kept = runtime::journal::compaction_fold(lines);
  EXPECT_LT(kept.size(), lines.size());  // the heartbeats folded away

  std::vector<runtime::journal_entry> kept_entries;
  for (const auto& line : kept)
    kept_entries.push_back(
        runtime::journal_entry::from_json(io::json_value::parse(line)));

  runtime::lease_table truth;
  for (const auto& e : history) truth.apply(e);
  runtime::lease_table folded;
  for (const auto& e : kept_entries) folded.apply(e);
  for (std::size_t job = 0; job < 3; ++job) {
    const auto a = folded.view(job);
    const auto b = truth.view(job);
    EXPECT_EQ(a.state, b.state) << "job " << job;
    EXPECT_EQ(a.worker, b.worker) << "job " << job;
    EXPECT_EQ(a.lease_id, b.lease_id) << "job " << job;
    EXPECT_EQ(a.deadline, b.deadline) << "job " << job;
    EXPECT_EQ(a.attempts, b.attempts) << "job " << job;
  }

  // Snapshot re-delivery: applying the kept records again onto the final
  // state must change nothing (a poller whose cursor fell inside a
  // compacted segment replays the snapshot on top of what it already saw).
  runtime::lease_table redelivered = truth;
  for (const auto& e : kept_entries) redelivered.apply(e);
  for (std::size_t job = 0; job < 3; ++job) {
    EXPECT_EQ(redelivered.view(job).state, truth.view(job).state) << "job " << job;
    EXPECT_EQ(redelivered.view(job).worker, truth.view(job).worker) << "job " << job;
  }

  // latest_states is preserved too (the status table's fold).
  const auto latest_full = runtime::journal::latest_states(history);
  const auto latest_kept = runtime::journal::latest_states(kept_entries);
  ASSERT_EQ(latest_full.size(), latest_kept.size());
  for (const auto& [job, e] : latest_full) {
    ASSERT_TRUE(latest_kept.count(job));
    EXPECT_EQ(latest_kept.at(job).state, e.state) << "job " << job;
  }
}

}  // namespace
}  // namespace boson
