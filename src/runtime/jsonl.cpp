#include "runtime/jsonl.h"

#include <cstdint>
#include <filesystem>
#include <iterator>
#include <utility>

#include "common/error.h"
#include "common/log.h"

namespace boson::runtime {

namespace {

/// Drop a torn trailing fragment (what a crash mid-append leaves behind)
/// before appending: without this, the first record of a resumed run would
/// merge into the fragment and turn the tolerated torn tail into permanent
/// mid-file corruption. Concurrent workers opening one file heal to the same
/// boundary; only resuming *several* workers at the exact moment one of them
/// has already healed and appended could race.
void drop_torn_tail(const std::string& path, const std::string& label) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return;  // nothing to heal
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (text.empty() || text.back() == '\n') return;
  const std::size_t cut = text.find_last_of('\n');
  const std::uintmax_t keep = cut == std::string::npos ? 0 : cut + 1;
  log_warn(label, ": dropping torn trailing fragment of '", path, "' (",
           text.size() - keep, " bytes)");
  std::error_code ec;
  std::filesystem::resize_file(path, keep, ec);
  if (ec) throw io_error(label + ": cannot truncate torn tail of '" + path + "'");
}

}  // namespace

jsonl_appender::jsonl_appender(std::string path, std::string label)
    : path_(std::move(path)), label_(std::move(label)) {
  drop_torn_tail(path_, label_);
  out_.open(path_, std::ios::out | std::ios::app);
  if (!out_) throw io_error(label_ + ": cannot open '" + path_ + "' for appending");
}

void replay_jsonl_lines(const std::string& path, const std::string& label,
                        const std::function<void(const std::string& line)>& on_line) {
  std::ifstream in(path);
  if (!in) return;  // no file yet: empty history

  std::string line;
  std::size_t line_number = 0;
  bool pending_failure = false;
  std::string failure;
  while (std::getline(in, line)) {
    ++line_number;
    if (pending_failure) throw io_error(failure);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      on_line(line);
    } catch (const error& e) {
      pending_failure = true;
      failure = label + ": '" + path + "' line " + std::to_string(line_number) +
                ": " + e.what();
    }
  }
}

void replay_jsonl(const std::string& path, const std::string& label,
                  const std::function<void(const io::json_value& record)>& on_record) {
  replay_jsonl_lines(path, label, [&on_record](const std::string& line) {
    on_record(io::json_value::parse(line));
  });
}

void jsonl_appender::append(const io::json_value& record) {
  // Render the whole line first: one write syscall per record under the
  // lock, so concurrent worker processes appending to the same file (append
  // mode -> O_APPEND) interleave whole lines only.
  const std::string line = record.dump(-1) + "\n";
  const std::lock_guard<std::mutex> lock(mutex_);
  out_ << line;
  out_.flush();
  if (!out_) throw io_error(label_ + ": append to '" + path_ + "' failed");
}

}  // namespace boson::runtime
