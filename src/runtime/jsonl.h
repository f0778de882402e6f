/// \file jsonl.h
/// Single-file JSONL durability: the result store's `results.jsonl` appends
/// through `jsonl_appender` — heal-on-open (a crash-torn trailing fragment
/// is truncated away so fresh appends cannot merge into it) and line-atomic
/// appends (each record rendered into a single write under a mutex, flushed
/// before returning) so concurrent worker processes interleave whole lines
/// only. The replay functions also read the single files that the one-shot
/// migrations move into `store::segment_log` directories (the registry's
/// `registry.jsonl`, a campaign's `journal.jsonl`).

#pragma once

#include <cstddef>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>

#include "io/json.h"

namespace boson::runtime {

/// Replay a JSONL file in order, invoking `on_record` with each parsed line.
/// Shared torn-tail contract of every runtime durability file: a malformed
/// line (JSON parse failure or an `error` thrown by `on_record`) is only
/// fatal when a well-formed record follows it — the torn tail a crash
/// mid-append (or a live reader racing a writer's flush) leaves behind is
/// ignored, while corruption anywhere else throws `io_error` naming the
/// line. A missing file replays to an empty history.
void replay_jsonl(const std::string& path, const std::string& label,
                  const std::function<void(const io::json_value& record)>& on_record);

/// Raw-line variant of `replay_jsonl` with the identical torn-tail contract,
/// for consumers that can extract what they need from the line text without
/// paying for a full parse (e.g. `result_store::count_rows`). Blank lines are
/// skipped; `on_line` sees each non-blank line without its newline and may
/// throw `error` to mark it malformed.
void replay_jsonl_lines(const std::string& path, const std::string& label,
                        const std::function<void(const std::string& line)>& on_line);

class jsonl_appender {
 public:
  /// Opens `path` for appending (creating it if needed), first dropping any
  /// torn trailing fragment a crash mid-append left behind. `label` names
  /// the owner in error messages ("journal", "result_store").
  jsonl_appender(std::string path, std::string label);

  /// Append one record as a compact JSON line; thread-safe and flushed, so a
  /// crash after `append` returns never loses the record.
  void append(const io::json_value& record);

  const std::string& path() const { return path_; }

 private:
  std::mutex mutex_;
  std::string path_;
  std::string label_;
  std::ofstream out_;
};

}  // namespace boson::runtime
