#include "service/registry.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "runtime/scheduler.h"
#include "store/segment_log.h"

namespace boson::service {

io::json_value campaign_record::to_json() const {
  io::json_value v = io::json_value::object();
  v["id"] = id;
  v["tenant"] = tenant;
  v["name"] = name;
  v["state"] = state;
  v["dir"] = dir;
  v["total_jobs"] = total_jobs;
  v["submitted_at"] = submitted_at;
  v["updated_at"] = updated_at;
  if (!detail.empty()) v["detail"] = detail;
  return v;
}

campaign_record campaign_record::from_json(const io::json_value& v) {
  campaign_record r;
  r.id = v.at("id").as_string();
  r.tenant = v.at("tenant").as_string();
  r.name = v.at("name").as_string();
  r.state = v.at("state").as_string();
  r.dir = v.at("dir").as_string();
  r.total_jobs = static_cast<std::size_t>(v.at("total_jobs").as_number());
  r.submitted_at = v.at("submitted_at").as_number();
  r.updated_at = v.at("updated_at").as_number();
  if (const io::json_value* d = v.find("detail")) r.detail = d->as_string();
  return r;
}

bool valid_tenant(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > 32) return false;
  for (const char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

namespace {

std::string ledger_dir(const std::string& data_dir) {
  return (std::filesystem::path(data_dir) / "registry").string();
}

/// Ids this registry minted are all 'c<digits>'; anything else is a corrupt
/// or foreign ledger record — name it instead of letting std::stoul abort
/// the fold with a context-free invalid_argument.
std::size_t id_number(const std::string& id, const std::string& where) {
  if (id.size() < 2 || id[0] != 'c' ||
      id.find_first_not_of("0123456789", 1) != std::string::npos)
    throw io_error("campaign_registry: malformed campaign id '" + id + "' in " +
                   where);
  try {
    return static_cast<std::size_t>(std::stoul(id.substr(1)));
  } catch (const std::exception&) {  // out_of_range: an absurd digit run
    throw io_error("campaign_registry: campaign id '" + id + "' in " + where +
                   " is out of range");
  }
}

}  // namespace

campaign_registry::campaign_registry(options opts) : options_(std::move(opts)) {
  require(!options_.data_dir.empty(), "campaign_registry: data_dir must not be empty");
  require(options_.tenant_quota >= 1, "campaign_registry: tenant quota must be >= 1");
  // A pre-store data root keeps its ledger in `registry.jsonl`. Starting an
  // empty ledger beside it would mint ids from c0001 again, colliding with
  // the campaign directories already on disk.
  const std::string legacy =
      (std::filesystem::path(options_.data_dir) / "registry.jsonl").string();
  std::error_code ec;
  if (std::filesystem::exists(legacy, ec))
    throw io_error("campaign_registry: '" + legacy +
                   "' is a pre-store ledger; open this data root once with a build "
                   "that still migrates it into registry/");
  log_ = std::make_unique<store::segment_log>(ledger_dir(options_.data_dir),
                                              store::log_options{}, "registry");

  const std::lock_guard<std::mutex> lock(mutex_);
  sync_locked();
}

campaign_registry::~campaign_registry() = default;

void campaign_registry::sync_locked() const {
  const store::read_batch batch = log_->read_since(cursor_);
  const std::string where = ledger_dir(options_.data_dir);
  for (std::size_t i = 0; i < batch.lines.size(); ++i) {
    campaign_record r;
    try {
      r = campaign_record::from_json(io::json_value::parse(batch.lines[i]));
    } catch (const error& e) {
      throw io_error("campaign_registry: malformed ledger record in " + where +
                     ": " + e.what());
    }
    next_id_ = std::max(next_id_, id_number(r.id, where) + 1);
    const auto it = index_.find(r.id);
    if (it != index_.end()) {
      records_[it->second] = std::move(r);
    } else {
      index_.emplace(r.id, records_.size());
      records_.push_back(std::move(r));
    }
    cursor_ = batch.cursors[i];
  }
  cursor_ = batch.end_cursor;
}

void campaign_registry::append_locked(const campaign_record& record) const {
  log_->append(record.to_json().dump(-1));
}

campaign_record campaign_registry::submit(const std::string& tenant,
                                          const runtime::campaign_spec& spec,
                                          double now) {
  require(valid_tenant(tenant), "campaign_registry: invalid tenant '" + tenant +
                                    "' (lowercase [a-z0-9_-], at most 32 chars)");

  const std::lock_guard<std::mutex> lock(mutex_);
  campaign_record record;
  // The whole submit — sync, quota check, id mint, append — is one
  // exclusive-lock section, so concurrent submitters in *other processes*
  // serialize here too: ids never collide and quotas hold fleet-wide.
  log_->with_exclusive([&] {
    sync_locked();
    std::size_t active = 0;
    for (const campaign_record& r : records_)
      if (r.tenant == tenant && r.state != "deleted" && !r.terminal()) ++active;
    if (active >= options_.tenant_quota)
      throw quota_error("campaign_registry: tenant '" + tenant +
                        "' is at its quota of " + std::to_string(options_.tenant_quota) +
                        " queued/running campaigns");

    char id[16];
    std::snprintf(id, sizeof id, "c%04zu", next_id_++);
    record.id = id;
    record.tenant = tenant;
    record.name = spec.name;
    record.state = "queued";
    record.dir =
        (std::filesystem::path(options_.data_dir) / tenant / record.id).string();
    record.total_jobs = spec.job_count();
    record.submitted_at = now;
    record.updated_at = now;

    std::filesystem::create_directories(record.dir);
    spec.to_json().write_file(runtime::campaign_spec_path(record.dir));
    append_locked(record);
    index_.emplace(record.id, records_.size());
    records_.push_back(record);
  });
  return record;
}

const campaign_record* campaign_registry::find_locked(const std::string& tenant,
                                                      const std::string& id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) return nullptr;
  const campaign_record& r = records_[it->second];
  if (r.tenant != tenant || r.state == "deleted") return nullptr;
  return &r;
}

std::optional<campaign_record> campaign_registry::find(const std::string& tenant,
                                                       const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  sync_locked();
  const campaign_record* r = find_locked(tenant, id);
  return r ? std::optional<campaign_record>(*r) : std::nullopt;
}

std::vector<campaign_record> campaign_registry::list(const std::string& tenant) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  sync_locked();
  std::vector<campaign_record> out;
  for (const campaign_record& r : records_)
    if (r.tenant == tenant && r.state != "deleted") out.push_back(r);
  return out;
}

std::vector<campaign_record> campaign_registry::all() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  sync_locked();
  std::vector<campaign_record> out;
  for (const campaign_record& r : records_)
    if (r.state != "deleted") out.push_back(r);
  return out;
}

bool campaign_registry::known_tenant(const std::string& tenant) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  sync_locked();
  for (const campaign_record& r : records_)
    if (r.tenant == tenant && r.state != "deleted") return true;
  return false;
}

campaign_record campaign_registry::set_state(const std::string& tenant,
                                             const std::string& id,
                                             const std::string& state, double now,
                                             const std::string& detail) {
  const std::lock_guard<std::mutex> lock(mutex_);
  campaign_record out;
  log_->with_exclusive([&] {
    sync_locked();
    const campaign_record* r = find_locked(tenant, id);
    require(r != nullptr,
            "campaign_registry: no campaign '" + id + "' for tenant '" + tenant + "'");
    campaign_record& slot = records_[index_.at(id)];
    slot.state = state;
    slot.updated_at = now;
    slot.detail = detail;
    append_locked(slot);
    out = slot;
  });
  return out;
}

std::optional<campaign_record> campaign_registry::try_claim(const std::string& tenant,
                                                            const std::string& id,
                                                            double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::optional<campaign_record> out;
  log_->with_exclusive([&] {
    sync_locked();
    const campaign_record* r = find_locked(tenant, id);
    if (r == nullptr || r->state != "queued") return;
    campaign_record& slot = records_[index_.at(id)];
    slot.state = "running";
    slot.updated_at = now;
    slot.detail.clear();
    append_locked(slot);
    out = slot;
  });
  return out;
}

campaign_record campaign_registry::remove(const std::string& tenant,
                                          const std::string& id, double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  campaign_record out;
  log_->with_exclusive([&] {
    sync_locked();
    const campaign_record* r = find_locked(tenant, id);
    require(r != nullptr,
            "campaign_registry: no campaign '" + id + "' for tenant '" + tenant + "'");
    campaign_record& slot = records_[index_.at(id)];
    slot.state = "deleted";
    slot.updated_at = now;
    append_locked(slot);
    out = slot;
  });
  return out;
}

std::size_t campaign_registry::active_count(const std::string& tenant) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  sync_locked();
  std::size_t active = 0;
  for (const campaign_record& r : records_)
    if (r.tenant == tenant && r.state != "deleted" && !r.terminal()) ++active;
  return active;
}

std::optional<campaign_record> campaign_registry::oldest_queued() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  sync_locked();
  for (const campaign_record& r : records_)  // records_ is id (submit) order
    if (r.state == "queued") return r;
  return std::nullopt;
}

}  // namespace boson::service
