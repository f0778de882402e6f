// Tests of the durable append-only log store (src/store) and the journal's
// ride on top of it: one growing segment per store, replay order,
// incremental cursors and paging, torn-tail healing, multi-process append
// interleaving, and reading (and appending to) the rotated and compacted
// chains earlier builds wrote.

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
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

bool exited_cleanly(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string rec(int i) { return "{\"i\":" + std::to_string(i) + "}"; }

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

std::string lines_of(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// Every file of a store directory but its lock.
std::set<std::string> store_files(const fs::path& dir) {
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().filename() != "lock") names.insert(entry.path().filename().string());
  return names;
}

/// Hand-write a store the way an earlier build's rotation left it: its
/// config record, then one `open` record and one segment per element of
/// `segments` (seqs 0, 1, ...; the last is the active tail).
void write_rotated_store(const fs::path& dir,
                         const std::vector<std::vector<std::string>>& segments) {
  std::string manifest =
      R"({"op":"config","segment_bytes":262144,"segment_records":1024,"compact_segments":4})"
      "\n";
  for (std::size_t seq = 0; seq < segments.size(); ++seq) {
    manifest += R"({"op":"open","seq":)" + std::to_string(seq) + "}\n";
    char name[48];
    std::snprintf(name, sizeof name, "segment-%06zu.jsonl", seq);
    write_text(dir / name, lines_of(segments[seq]));
  }
  write_text(dir / "manifest.jsonl", manifest);
}

// ------------------------------------------------------- one segment + cursors ---

TEST(segment_log, appends_land_in_one_segment_and_replay_in_order) {
  const fs::path dir = fresh_dir("store_one_segment");
  // More records than the 1024 an earlier build rotated at.
  constexpr int kRecords = 1500;
  {
    store::segment_log log(dir.string());
    for (int i = 0; i < kRecords; ++i) log.append(rec(i));
  }

  const auto lines = store::segment_log::read_all(dir.string(), "test");
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i)
    EXPECT_EQ(lines[static_cast<std::size_t>(i)], rec(i));
  EXPECT_EQ(store_files(dir),
            (std::set<std::string>{"manifest.jsonl", "segment-000000.jsonl"}));
  EXPECT_EQ(read_text(dir / "manifest.jsonl"), "{\"op\":\"open\",\"seq\":0}\n");
}

TEST(segment_log, incremental_cursors_stay_exact_across_rotation) {
  // A chain an earlier build rotated every four records, then appends.
  const fs::path dir = fresh_dir("store_cursors");
  write_rotated_store(dir, {{rec(0), rec(1), rec(2), rec(3)},
                            {rec(4), rec(5), rec(6), rec(7)},
                            {rec(8), rec(9)}});
  store::segment_log log(dir.string());

  const store::read_batch all =
      store::segment_log::read_since_dir(dir.string(), "test", 0);
  ASSERT_EQ(all.lines.size(), 10u);
  // Every per-line cursor resumes right after its line, segment ends included.
  for (std::size_t i = 0; i < all.cursors.size(); ++i) {
    const store::read_batch rest =
        store::segment_log::read_since_dir(dir.string(), "test", all.cursors[i]);
    ASSERT_EQ(rest.lines.size(), all.lines.size() - i - 1) << "after line " << i;
    if (!rest.lines.empty()) {
      EXPECT_EQ(rest.lines[0], rec(static_cast<int>(i) + 1));
    }
  }

  std::uint64_t cursor = all.end_cursor;
  std::vector<std::string> seen = all.lines;
  for (int i = 10; i < 14; ++i) {
    log.append(rec(i));
    const store::read_batch batch =
        store::segment_log::read_since_dir(dir.string(), "test", cursor);
    ASSERT_EQ(batch.lines.size(), 1u);
    seen.push_back(batch.lines[0]);
    cursor = batch.end_cursor;
  }
  ASSERT_EQ(seen.size(), 14u);
  for (int i = 0; i < 14; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], rec(i));
  EXPECT_TRUE(
      store::segment_log::read_since_dir(dir.string(), "test", cursor).lines.empty());
}

TEST(segment_log, max_lines_pages_through_the_chain_without_gaps) {
  const fs::path dir = fresh_dir("store_pages");
  write_rotated_store(dir, {{rec(0), rec(1), rec(2)}, {rec(3), rec(4), rec(5)}, {}});
  store::segment_log log(dir.string());
  for (int i = 6; i < 10; ++i) log.append(rec(i));

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

TEST(segment_log, a_cursor_cannot_encode_an_offset_past_8_gib) {
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 33;
  EXPECT_THROW((void)store::encode_cursor(0, kLimit), io_error);
  EXPECT_THROW((void)store::encode_cursor(3, kLimit + 17), io_error);
  std::uint64_t seq = 0;
  std::uint64_t offset = 0;
  store::decode_cursor(store::encode_cursor(3, kLimit - 1), seq, offset);
  EXPECT_EQ(seq, 3u);
  EXPECT_EQ(offset, kLimit - 1);
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

TEST(segment_log, heal_torn_tail_cuts_back_to_the_last_newline) {
  const fs::path dir = fresh_dir("store_heal_tail");
  const fs::path file = dir / "f.jsonl";

  // A fragment longer than one read-back chunk.
  const std::string head = rec(0) + "\n" + rec(1) + "\n";
  write_text(file, head + std::string(10000, 'x'));
  EXPECT_EQ(store::heal_torn_tail(file.string(), "test"), 10000u);
  EXPECT_EQ(read_text(file), head);

  // A clean tail, an empty file and a missing one are left alone.
  EXPECT_EQ(store::heal_torn_tail(file.string(), "test"), 0u);
  EXPECT_EQ(read_text(file), head);
  write_text(file, "");
  EXPECT_EQ(store::heal_torn_tail(file.string(), "test"), 0u);
  EXPECT_EQ(store::heal_torn_tail((dir / "missing.jsonl").string(), "test"), 0u);
  EXPECT_FALSE(fs::exists(dir / "missing.jsonl"));

  // No newline at all: the whole file is one fragment.
  write_text(file, "{\"torn\"");
  EXPECT_EQ(store::heal_torn_tail(file.string(), "test"), 7u);
  EXPECT_EQ(read_text(file), "");
}

// ------------------------------------------- chains earlier builds wrote ---

TEST(segment_log, replays_and_appends_to_a_chain_an_earlier_build_compacted) {
  // Segments 0..3 opened by rotation; 0..1 compacted into snapshot 4.
  // Segment 0 outlived the compaction (a crash before its GC) and a draft of
  // a later snapshot was left behind: neither is in the chain.
  const fs::path dir = fresh_dir("store_earlier_chain");
  write_text(
      dir / "manifest.jsonl",
      R"({"op":"config","segment_bytes":262144,"segment_records":1024,"compact_segments":4})"
      "\n"
      R"({"op":"open","seq":0})"
      "\n"
      R"({"op":"open","seq":1})"
      "\n"
      R"({"op":"open","seq":2})"
      "\n"
      R"({"op":"open","seq":3})"
      "\n"
      R"({"op":"compact","seq":4,"first":0,"last":1,"in":4,"kept":2})"
      "\n");
  write_text(dir / "segment-000000.jsonl", lines_of({rec(0), rec(1)}));
  write_text(dir / "segment-000004.jsonl", lines_of({rec(1), rec(3)}));
  write_text(dir / "segment-000002.jsonl", lines_of({rec(4), rec(5)}));
  write_text(dir / "segment-000003.jsonl", lines_of({rec(6)}));
  write_text(dir / "segment-000005.jsonl.tmp", lines_of({rec(99)}));

  // Chain order: the snapshot, then the segments opened after the run.
  const std::vector<std::string> chain = {rec(1), rec(3), rec(4), rec(5), rec(6)};
  EXPECT_EQ(store::segment_log::read_all(dir.string(), "test"), chain);

  // A cursor into compacted-away segment 0 resumes at the start of snapshot 4.
  const std::uint64_t into_seq0 = store::encode_cursor(0, rec(0).size() + 1);
  EXPECT_EQ(store::segment_log::read_since_dir(dir.string(), "test", into_seq0).lines,
            chain);
  // A segment the chain never had is still the caller's mistake.
  EXPECT_THROW((void)store::segment_log::read_since_dir(dir.string(), "test",
                                                        store::encode_cursor(9, 0)),
               bad_argument);

  // Attaching and appending writes segment 3 only: the manifest keeps its
  // bytes and no file appears or disappears.
  const std::string manifest = read_text(dir / "manifest.jsonl");
  const std::set<std::string> files = store_files(dir);
  {
    store::segment_log log(dir.string());
    log.append(rec(7));
    std::vector<std::string> expected = chain;
    expected.push_back(rec(7));
    EXPECT_EQ(log.read_since(0).lines, expected);
    EXPECT_EQ(log.read_since(into_seq0).lines, expected);
  }
  EXPECT_EQ(read_text(dir / "manifest.jsonl"), manifest);
  EXPECT_EQ(store_files(dir), files);
  EXPECT_EQ(read_text(dir / "segment-000003.jsonl"), lines_of({rec(6), rec(7)}));
  EXPECT_EQ(read_text(dir / "segment-000000.jsonl"), lines_of({rec(0), rec(1)}));
}

// --------------------------------------------------- multi-process appends ---

TEST(segment_log, concurrent_appenders_interleave_whole_lines) {
  const fs::path dir = fresh_dir("store_concurrent");
  { store::segment_log creator(dir.string()); }

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
  for (const pid_t pid : pids) ASSERT_TRUE(exited_cleanly(pid));

  // Every line is complete and parseable; each child's lines appear in its
  // own append order; nothing was lost or torn, and all of it is in the one
  // segment.
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
  EXPECT_EQ(store_files(dir),
            (std::set<std::string>{"manifest.jsonl", "segment-000000.jsonl"}));
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

TEST(journal_store, segmented_journal_round_trips) {
  const fs::path dir = fresh_dir("journal_store");
  const std::string path = runtime::journal_path(dir.string());
  runtime::journal log(path);

  // A three-job history with leases, heartbeats, a completion and a release.
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

  // An incremental cursor parked at the tail sees exactly what is appended
  // after it.
  runtime::journal_cursor cursor;
  EXPECT_EQ(runtime::journal::since(log.path(), cursor).size(), history.size());
  EXPECT_TRUE(runtime::journal::since(log.path(), cursor).empty());
  log.append(entry(2, job_state::completed, "w1", 3, 0.0, 5.0, 1));
  const auto fresh = runtime::journal::since(log.path(), cursor);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].state, job_state::completed);
  EXPECT_EQ(cursor.line, history.size() + 1);

  // The replayed journal resolves to the same lease state as the history.
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
  EXPECT_EQ(store_files(path),
            (std::set<std::string>{"manifest.jsonl", "segment-000000.jsonl"}));
}

}  // namespace
}  // namespace boson
