#include "runtime/journal.h"

#include <filesystem>
#include <utility>

#include "common/error.h"
#include "store/segment_log.h"

namespace fs = std::filesystem;

namespace boson::runtime {

const char* to_string(job_state state) {
  switch (state) {
    case job_state::leased: return "leased";
    case job_state::lease_renewed: return "lease_renewed";
    case job_state::lease_released: return "lease_released";
    case job_state::lease_expired: return "lease_expired";
    case job_state::running: return "running";
    case job_state::checkpointed: return "checkpointed";
    case job_state::completed: return "completed";
    case job_state::failed: return "failed";
    case job_state::cancelled: return "cancelled";
  }
  return "?";
}

job_state job_state_from_string(const std::string& text) {
  if (text == "leased") return job_state::leased;
  if (text == "lease_renewed") return job_state::lease_renewed;
  if (text == "lease_released") return job_state::lease_released;
  if (text == "lease_expired") return job_state::lease_expired;
  if (text == "running") return job_state::running;
  if (text == "checkpointed") return job_state::checkpointed;
  if (text == "completed") return job_state::completed;
  if (text == "failed") return job_state::failed;
  if (text == "cancelled") return job_state::cancelled;
  throw bad_argument("journal: unknown job state '" + text + "'");
}

io::json_value journal_entry::to_json() const {
  io::json_value v = io::json_value::object();
  v["job"] = job_index;
  v["name"] = job_name;
  v["state"] = to_string(state);
  v["attempt"] = attempt;
  if (!detail.empty()) v["detail"] = detail;
  if (seconds > 0.0) v["seconds"] = seconds;
  if (!worker.empty()) v["worker"] = worker;
  if (lease_id != 0) v["lease"] = static_cast<double>(lease_id);
  if (deadline != 0.0) v["deadline"] = deadline;
  if (stamp != 0.0) v["t"] = stamp;
  return v;
}

journal_entry journal_entry::from_json(const io::json_value& v) {
  journal_entry e;
  e.job_index = static_cast<std::size_t>(v.at("job").as_number());
  e.job_name = v.at("name").as_string();
  e.state = job_state_from_string(v.at("state").as_string());
  e.attempt = static_cast<std::size_t>(v.at("attempt").as_number());
  if (const io::json_value* d = v.find("detail")) e.detail = d->as_string();
  if (const io::json_value* s = v.find("seconds")) e.seconds = s->as_number();
  if (const io::json_value* w = v.find("worker")) e.worker = w->as_string();
  if (const io::json_value* l = v.find("lease"))
    e.lease_id = static_cast<std::uint64_t>(l->as_number());
  if (const io::json_value* dl = v.find("deadline")) e.deadline = dl->as_number();
  if (const io::json_value* t = v.find("t")) e.stamp = t->as_number();
  return e;
}

std::string journal_path(const std::string& campaign_dir) {
  const std::string file = (fs::path(campaign_dir) / "journal.jsonl").string();
  std::error_code ec;
  if (fs::exists(file, ec))
    throw io_error("journal: '" + file +
                   "' is a pre-store single-file journal; open this campaign once "
                   "with a build that still migrates it into journal/");
  return (fs::path(campaign_dir) / "journal").string();
}

journal::journal(std::string dir, std::function<void()> on_append)
    : path_(std::move(dir)),
      store_(std::make_unique<store::segment_log>(path_, store::log_options{}, "journal")),
      on_append_(std::move(on_append)) {}

journal::~journal() = default;

void journal::append(const journal_entry& entry) {
  store_->append(entry.to_json().dump(-1));
  if (on_append_) on_append_();
}

namespace {

/// Parse a read batch into entries, advancing `cursor` past each one. Per-line
/// cursors carry the deferred-failure contract over: a malformed line only
/// becomes fatal once a successor proves the store kept going; as the batch
/// tail it stays ahead of the cursor for the next poll.
std::vector<journal_entry> parse_batch(const std::string& path,
                                       const store::read_batch& batch,
                                       journal_cursor& cursor) {
  std::vector<journal_entry> entries;
  std::string pending_error;
  for (std::size_t i = 0; i < batch.lines.size(); ++i) {
    if (!pending_error.empty()) throw io_error(pending_error);
    try {
      entries.push_back(journal_entry::from_json(io::json_value::parse(batch.lines[i])));
    } catch (const error& e) {
      pending_error = "journal: '" + path + "' line " + std::to_string(cursor.line + 1) +
                      ": " + e.what();
      continue;  // cursor stays before the suspect line
    }
    cursor.offset = batch.cursors[i];
    cursor.line += 1;
  }
  return entries;
}

}  // namespace

std::vector<journal_entry> journal::since(const std::string& path,
                                          journal_cursor& cursor) {
  return parse_batch(
      path, store::segment_log::read_since_dir(path, "journal", cursor.offset), cursor);
}

std::vector<journal_entry> journal::poll(journal_cursor& cursor) {
  return parse_batch(path_, store_->read_since(cursor.offset), cursor);
}

std::vector<journal_entry> journal::replay(const std::string& path) {
  journal_cursor from_start;
  return since(path, from_start);
}

std::vector<std::string> journal::raw_since(const std::string& path,
                                            std::uint64_t& cursor,
                                            std::size_t max_lines) {
  store::read_batch batch =
      store::segment_log::read_since_dir(path, "journal", cursor, max_lines);
  cursor = batch.end_cursor;
  return std::move(batch.lines);
}

std::map<std::size_t, journal_entry> journal::latest_states(
    const std::vector<journal_entry>& entries) {
  std::map<std::size_t, journal_entry> latest;
  for (const journal_entry& e : entries) latest[e.job_index] = e;
  return latest;
}

}  // namespace boson::runtime
