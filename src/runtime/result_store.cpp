#include "runtime/result_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "io/table.h"
#include "store/segment_log.h"

namespace boson::runtime {

io::json_value job_result_row::to_json() const {
  io::json_value v = io::json_value::object();
  v["job"] = job_index;
  v["name"] = name;
  v["device"] = device;
  v["method"] = method;
  v["seed"] = static_cast<double>(seed);
  v["prefab_fom"] = prefab_fom;
  if (postfab_samples > 0) {
    io::json_value& mc = v["postfab"] = io::json_value::object();
    mc["samples"] = postfab_samples;
    mc["mean"] = postfab_mean;
    mc["std"] = postfab_std;
    mc["min"] = postfab_min;
    mc["max"] = postfab_max;
  }
  v["seconds"] = seconds;
  v["attempt"] = attempt;
  if (!artifact_dir.empty()) v["artifact_dir"] = artifact_dir;
  if (!recipe.empty()) v["recipe"] = recipe;
  return v;
}

job_result_row job_result_row::from_json(const io::json_value& v) {
  job_result_row row;
  row.job_index = static_cast<std::size_t>(v.at("job").as_number());
  row.name = v.at("name").as_string();
  row.device = v.at("device").as_string();
  row.method = v.at("method").as_string();
  row.seed = static_cast<std::uint64_t>(v.at("seed").as_number());
  row.prefab_fom = v.at("prefab_fom").as_number();
  if (const io::json_value* mc = v.find("postfab")) {
    row.postfab_samples = static_cast<std::size_t>(mc->at("samples").as_number());
    row.postfab_mean = mc->at("mean").as_number();
    row.postfab_std = mc->at("std").as_number();
    row.postfab_min = mc->at("min").as_number();
    row.postfab_max = mc->at("max").as_number();
  }
  row.seconds = v.at("seconds").as_number();
  row.attempt = static_cast<std::size_t>(v.at("attempt").as_number());
  if (const io::json_value* d = v.find("artifact_dir")) row.artifact_dir = d->as_string();
  if (const io::json_value* r = v.find("recipe")) row.recipe = r->as_string();
  return row;
}

std::string result_store::store_path(const std::string& campaign_dir) {
  return (std::filesystem::path(campaign_dir) / "results.jsonl").string();
}

namespace {

/// Holds flock(2) `op` on `fd` for one scope.
class file_lock {
 public:
  file_lock(int fd, int op, const std::string& path) : fd_(fd) {
    while (::flock(fd_, op) != 0)
      if (errno != EINTR) throw io_error("result_store: cannot lock '" + path + "'");
  }
  ~file_lock() { ::flock(fd_, LOCK_UN); }
  file_lock(const file_lock&) = delete;
  file_lock& operator=(const file_lock&) = delete;

 private:
  int fd_;
};

/// Replay the store's lines in order, invoking `on_line` with each non-blank
/// line (without its newline). A malformed line (`on_line` throws `error`)
/// is only fatal when another line follows it: the torn tail a crash
/// mid-append (or a reader racing a writer's write) leaves behind is
/// ignored, while corruption anywhere else throws `io_error` naming the
/// line. A missing file replays to nothing.
void replay_lines(const std::string& path,
                  const std::function<void(const std::string& line)>& on_line) {
  std::ifstream in(path);
  if (!in) return;  // no file yet: empty history

  std::string line;
  std::size_t line_number = 0;
  std::string failure;
  while (std::getline(in, line)) {
    ++line_number;
    if (!failure.empty()) throw io_error(failure);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      on_line(line);
    } catch (const error& e) {
      failure = "result_store: '" + path + "' line " + std::to_string(line_number) +
                ": " + e.what();
    }
  }
}

}  // namespace

result_store::result_store(const std::string& campaign_dir)
    : path_(store_path(campaign_dir)) {
  std::filesystem::create_directories(campaign_dir);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw io_error("result_store: cannot open '" + path_ + "' for appending");

  // Heal under the exclusive lock: an appender holds the shared one across
  // its write, so the boundary computed here cannot be stale by the time
  // the file is cut to it.
  try {
    const file_lock lock(fd_, LOCK_EX, path_);
    store::heal_torn_tail(path_, "result_store");
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

result_store::~result_store() { ::close(fd_); }

void result_store::append(const job_result_row& row) {
  const std::string line = row.to_json().dump(-1) + "\n";
  const std::lock_guard<std::mutex> guard(mutex_);
  const file_lock lock(fd_, LOCK_SH, path_);
  for (std::size_t written = 0; written < line.size();) {
    const ssize_t n = ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw io_error("result_store: append to '" + path_ + "' failed");
    written += static_cast<std::size_t>(n);
  }
}

std::vector<job_result_row> result_store::load(const std::string& campaign_dir) {
  std::map<std::size_t, job_result_row> latest;
  replay_lines(store_path(campaign_dir), [&latest](const std::string& line) {
    job_result_row row = job_result_row::from_json(io::json_value::parse(line));
    const std::size_t index = row.job_index;
    latest.insert_or_assign(index, std::move(row));
  });
  std::vector<job_result_row> rows;
  rows.reserve(latest.size());
  for (auto& [index, row] : latest) {
    (void)index;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::size_t result_store::count_rows(const std::string& campaign_dir) {
  std::set<std::size_t> jobs;
  replay_lines(store_path(campaign_dir), [&jobs](const std::string& line) {
    // Fast path: rows this store writes start exactly with {"job":N, —
    // peel the index straight off the text. Anything else (hand-edited
    // or foreign rows) goes through the full parser.
    const std::string prefix = "{\"job\":";
    if (line.rfind(prefix, 0) == 0) {
      std::size_t value = 0;
      std::size_t i = prefix.size();
      const std::size_t start = i;
      while (i < line.size() && line[i] >= '0' && line[i] <= '9')
        value = value * 10 + static_cast<std::size_t>(line[i++] - '0');
      if (i > start && i < line.size() && (line[i] == ',' || line[i] == '}')) {
        jobs.insert(value);
        return;
      }
    }
    jobs.insert(static_cast<std::size_t>(
        io::json_value::parse(line).at("job").as_number()));
  });
  return jobs.size();
}

// ------------------------------------------------------------------ report --

namespace {

struct aggregate {
  std::size_t n = 0;
  double prefab_sum = 0.0;
  double postfab_sum = 0.0;
  double postfab_std_sum = 0.0;
  std::size_t postfab_n = 0;

  void add(const job_result_row& row) {
    ++n;
    prefab_sum += row.prefab_fom;
    if (row.postfab_samples > 0) {
      ++postfab_n;
      postfab_sum += row.postfab_mean;
      postfab_std_sum += row.postfab_std;
    }
  }

  std::string cell() const {
    if (n == 0) return "-";
    if (postfab_n == 0) return io::console_table::sci(prefab_sum / static_cast<double>(n));
    return io::console_table::sci(postfab_sum / static_cast<double>(postfab_n)) + " +- " +
           io::console_table::sci(postfab_std_sum / static_cast<double>(postfab_n));
  }
};

}  // namespace

std::string render_report(const campaign_spec& spec,
                          const std::vector<job_result_row>& rows) {
  std::ostringstream out;
  const std::size_t total = spec.job_count();
  out << "campaign '" << spec.name << "': " << rows.size() << "/" << total
      << " jobs in the result store\n\n";

  // Table 1/3 layout: methods down, devices across, each cell the post-fab
  // FoM mean +- std aggregated over the seed/override axes (falling back to
  // the prefab FoM when no Monte Carlo was planned).
  std::map<std::string, std::map<std::string, aggregate>> grid;  // method -> device
  for (const job_result_row& row : rows) grid[row.method][row.device].add(row);

  std::vector<std::string> header{"method"};
  for (const std::string& device : spec.devices) header.push_back(device);
  io::console_table table(header);
  for (const std::string& method : spec.methods) {
    std::vector<std::string> cells{method};
    for (const std::string& device : spec.devices) cells.push_back(grid[method][device].cell());
    table.add_row(cells);
  }
  out << table.render("Post-fab FoM (mean over jobs +- mean per-job Monte-Carlo std)")
      << "\n";

  // Method provenance legend: the resolved-recipe signature each method name
  // stands for (campaign-local hybrids are only defined here, so the report
  // stays interpretable without the campaign.json).
  std::map<std::string, std::string> signatures;
  for (const job_result_row& row : rows)
    if (!row.recipe.empty()) signatures.emplace(row.method, row.recipe);
  if (!signatures.empty()) {
    io::console_table legend({"method", "recipe"});
    for (const std::string& method : spec.methods) {
      const auto it = signatures.find(method);
      if (it != signatures.end()) legend.add_row({method, it->second});
    }
    out << "\n" << legend.render("Method recipes") << "\n";
  }

  // Per-device detail: the Table 2-style per-job statistics. Jobs of a named
  // override axis share method and seed, so they get an override column
  // (overrides are the innermost expansion axis: the job index names one).
  // Campaigns without overrides keep the plain layout.
  const std::vector<campaign_override>& overrides = spec.overrides;
  std::vector<std::string> detail_header{"method", "seed"};
  if (!overrides.empty()) detail_header.push_back("override");
  detail_header.insert(detail_header.end(),
                       {"prefab FoM", "postfab mean", "postfab std", "worst", "s"});
  for (const std::string& device : spec.devices) {
    // "worst" is the Monte-Carlo extreme on the bad side of the device's FoM
    // direction (the isolator's contrast is lower-is-better).
    const bool lower_better =
        api::find_device(device).make(spec.base.resolution).objective.fom_lower_better;
    io::console_table detail(detail_header);
    bool any = false;
    for (const job_result_row& row : rows) {
      if (row.device != device) continue;
      any = true;
      const bool mc = row.postfab_samples > 0;
      const double worst = lower_better ? row.postfab_max : row.postfab_min;
      std::vector<std::string> cells{row.method, std::to_string(row.seed)};
      if (!overrides.empty()) cells.push_back(overrides[row.job_index % overrides.size()].name);
      cells.insert(cells.end(), {io::console_table::sci(row.prefab_fom),
                                 mc ? io::console_table::sci(row.postfab_mean) : "-",
                                 mc ? io::console_table::sci(row.postfab_std) : "-",
                                 mc ? io::console_table::sci(worst) : "-",
                                 io::console_table::num(row.seconds, 1)});
      detail.add_row(cells);
    }
    if (any) out << "\n" << detail.render("Device: " + device);
  }
  return out.str();
}

}  // namespace boson::runtime
