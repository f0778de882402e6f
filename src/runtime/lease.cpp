#include "runtime/lease.h"

#include <chrono>
#include <utility>

#include "common/error.h"

namespace boson::runtime {

double wall_clock_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ lease_table --

void lease_table::apply(const journal_entry& e) {
  lease_view& v = jobs_[e.job_index];
  v.attempts = std::max(v.attempts, e.attempt);

  if (v.state == lease_view::phase::done) return;  // terminal: ignore stragglers

  const bool owner_matches = v.state == lease_view::phase::leased &&
                             v.worker == e.worker && v.lease_id == e.lease_id;
  const auto to_pending = [&v] {
    v.state = lease_view::phase::pending;
    v.worker.clear();
    v.lease_id = 0;
    v.deadline = 0.0;
  };
  switch (e.state) {
    case job_state::completed:
      to_pending();
      v.state = lease_view::phase::done;
      break;
    case job_state::leased:
      // A claim wins only from pending; claims over a live lease lose (the
      // claimant sees that on its verify pass). Takeover of an expired lease
      // goes through an explicit lease_expired record first.
      if (v.state == lease_view::phase::pending) {
        v.state = lease_view::phase::leased;
        v.worker = e.worker;
        v.lease_id = e.lease_id;
        v.deadline = e.deadline;
      }
      break;
    case job_state::lease_renewed:
      if (owner_matches) v.deadline = e.deadline;
      break;
    case job_state::lease_released:
      if (owner_matches) to_pending();
      break;
    case job_state::lease_expired:
      // Frees the job only when the record names the live lease and proves
      // the deadline passed at the writer's clock — a premature expiry
      // record (buggy clock, stale snapshot) is void.
      if (owner_matches && e.stamp >= v.deadline) to_pending();
      break;
    case job_state::failed:
    case job_state::cancelled:
      // The attempt is over: its lease is released. Legacy records carry no
      // worker (the pre-lease flow), so they release whatever is live.
      if (owner_matches || e.worker.empty()) to_pending();
      break;
    case job_state::running:
    case job_state::checkpointed:
      break;  // informational
  }
}

lease_table lease_table::resolve(const std::vector<journal_entry>& entries) {
  lease_table table;
  for (const journal_entry& e : entries) table.apply(e);
  return table;
}

lease_view lease_table::view(std::size_t job) const {
  const auto it = jobs_.find(job);
  return it != jobs_.end() ? it->second : lease_view{};
}

// ---------------------------------------------------------- lease_manager --

lease_manager::lease_manager(journal& log, std::string worker_id, double ttl,
                             clock_fn clock)
    : log_(log), worker_(std::move(worker_id)), ttl_(ttl),
      clock_(clock ? std::move(clock) : clock_fn(&wall_clock_seconds)) {
  require(!worker_.empty(), "lease_manager: worker id must not be empty");
  require(ttl_ > 0.0, "lease_manager: lease TTL must be positive");
}

void lease_manager::refresh_locked() {
  for (const journal_entry& e : log_.poll(cursor_))
    table_.apply(e);
}

void lease_manager::refresh() {
  const std::lock_guard<std::mutex> lock(mutex_);
  refresh_locked();
}

lease_table lease_manager::snapshot() {
  const std::lock_guard<std::mutex> lock(mutex_);
  refresh_locked();
  return table_;
}

std::optional<job_lease> lease_manager::claim(std::size_t job,
                                              const std::string& job_name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  refresh_locked();

  const double now = clock_();
  const lease_view v = table_.view(job);
  if (v.state == lease_view::phase::done) return std::nullopt;

  job_lease lease;
  if (v.state == lease_view::phase::leased) {
    if (v.deadline > now) return std::nullopt;  // live: not ours to take
    // Expired: append the explicit takeover prologue. Resolution ignores it
    // unless the stamp proves expiry against the *current* deadline, so a
    // racing renewal that lands first simply voids our steal.
    journal_entry expire;
    expire.job_index = job;
    expire.job_name = job_name;
    expire.state = job_state::lease_expired;
    expire.attempt = v.attempts;
    expire.worker = v.worker;
    expire.lease_id = v.lease_id;
    expire.deadline = v.deadline;
    expire.stamp = now;
    expire.detail = "taken over by " + worker_;
    log_.append(expire);
    lease.stolen = true;
    lease.stolen_from = v.worker;
  }

  journal_entry claim;
  claim.job_index = job;
  claim.job_name = job_name;
  claim.state = job_state::leased;
  claim.attempt = v.attempts + 1;
  claim.worker = worker_;
  claim.lease_id = ++next_lease_id_;
  claim.deadline = now + ttl_;
  claim.stamp = now;
  log_.append(claim);

  // Verify: fold everything up to (at least) our own claim and check that it
  // won. Another worker's claim landing first makes ours a losing record
  // that resolution ignored.
  refresh_locked();
  const lease_view after = table_.view(job);
  if (after.state != lease_view::phase::leased || after.worker != worker_ ||
      after.lease_id != claim.lease_id)
    return std::nullopt;

  lease.job_index = job;
  lease.job_name = job_name;
  lease.lease_id = claim.lease_id;
  lease.deadline = after.deadline;
  lease.attempt = after.attempts;  // the claim record's attempt number
  return lease;
}

bool lease_manager::renew(job_lease& lease) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const double now = clock_();
  journal_entry renew;
  renew.job_index = lease.job_index;
  renew.job_name = lease.job_name;
  renew.state = job_state::lease_renewed;
  renew.attempt = lease.attempt;
  renew.worker = worker_;
  renew.lease_id = lease.lease_id;
  renew.deadline = now + ttl_;
  renew.stamp = now;
  log_.append(renew);

  refresh_locked();
  const lease_view v = table_.view(lease.job_index);
  if (v.state != lease_view::phase::leased || v.worker != worker_ ||
      v.lease_id != lease.lease_id)
    return false;
  lease.deadline = v.deadline;
  return true;
}

void lease_manager::release(const job_lease& lease) {
  const std::lock_guard<std::mutex> lock(mutex_);
  journal_entry e;
  e.job_index = lease.job_index;
  e.job_name = lease.job_name;
  e.state = job_state::lease_released;
  e.attempt = lease.attempt;
  e.worker = worker_;
  e.lease_id = lease.lease_id;
  e.stamp = clock_();
  log_.append(e);
}

bool lease_manager::still_owner(const job_lease& lease) {
  const std::lock_guard<std::mutex> lock(mutex_);
  refresh_locked();
  const lease_view v = table_.view(lease.job_index);
  return v.state == lease_view::phase::leased && v.worker == worker_ &&
         v.lease_id == lease.lease_id;
}

}  // namespace boson::runtime
