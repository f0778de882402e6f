/// \file registry.h
/// The service's durable campaign ledger: every submitted campaign gets an
/// id, a per-tenant directory under one data root, and a lifecycle state
/// (queued → running → done/failed/cancelled → deleted). State changes
/// append latest-record-wins lines to a `registry/` log store in the data
/// root (`store::segment_log`, one growing segment; a `"deleted"` tombstone
/// keeps its id from being minted again), so a restarted service rescans
/// the ledger and finds every campaign exactly where it left it — and
/// because every mutation runs under the store's cross-process exclusive
/// lock, *several service processes can share one data root*: ids stay
/// unique, quotas are enforced against the union of submits, and a
/// queued→running claim is atomic across the fleet. A data root that still
/// holds a pre-store `registry.jsonl` is refused. Tenants are directories:
/// quota and listing are per tenant, and two tenants can submit campaigns
/// with the same name without colliding.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "io/json.h"
#include "runtime/campaign.h"

namespace boson::store {
class segment_log;
}

namespace boson::service {

/// Thrown when a tenant's queued+running campaign count is at its quota.
/// The control plane maps it to 429.
class quota_error : public error {
 public:
  using error::error;
};

/// One registered campaign.
struct campaign_record {
  std::string id;      ///< registry-unique ("c0001", assigned at submit)
  std::string tenant;
  std::string name;    ///< the campaign_spec's name (display only)
  std::string state;   ///< queued | running | done | failed | cancelled
  std::string dir;     ///< campaign directory (spec, journal, store, jobs)
  std::size_t total_jobs = 0;
  double submitted_at = 0.0;
  double updated_at = 0.0;
  std::string detail;  ///< failure/cancel reason ("" otherwise)

  bool terminal() const {
    return state == "done" || state == "failed" || state == "cancelled";
  }

  io::json_value to_json() const;
  static campaign_record from_json(const io::json_value& v);
};

/// Tenant names are path components and header values: short lowercase
/// slugs only.
bool valid_tenant(const std::string& tenant);

/// Thread-safe registry over one data directory.
class campaign_registry {
 public:
  struct options {
    std::string data_dir = "boson_service";
    std::size_t tenant_quota = 8;  ///< max queued+running campaigns per tenant
  };

  /// Creates `data_dir` if needed, opens (creating if needed) the
  /// `registry/` segment store, and folds it (latest record per id wins), so
  /// restarts resume the ledger. A pre-store `registry.jsonl` in `data_dir`
  /// throws `io_error` naming it, before anything is created.
  explicit campaign_registry(options opts);
  ~campaign_registry();

  /// Register a campaign: assign the next id, create the tenant/id campaign
  /// directory, persist the canonical campaign.json inside it, and append
  /// the queued record. Throws `bad_argument` for an invalid tenant and
  /// `quota_error` at the tenant's quota.
  campaign_record submit(const std::string& tenant,
                         const runtime::campaign_spec& spec, double now);

  /// nullopt when the tenant has no campaign `id` (ids are not guessable
  /// across tenants: looking up another tenant's id misses).
  std::optional<campaign_record> find(const std::string& tenant,
                                      const std::string& id) const;

  /// This tenant's campaigns in submit order.
  std::vector<campaign_record> list(const std::string& tenant) const;

  /// Every campaign, all tenants, in submit order (runner pickup, metrics).
  std::vector<campaign_record> all() const;

  /// True when the tenant submitted at least one campaign.
  bool known_tenant(const std::string& tenant) const;

  /// Move a campaign to `state` (appending the ledger record). Returns the
  /// updated record; throws `bad_argument` when the campaign is unknown.
  campaign_record set_state(const std::string& tenant, const std::string& id,
                            const std::string& state, double now,
                            const std::string& detail = "");

  /// Atomic cross-process queued→running flip: under the store's exclusive
  /// lock, re-sync and claim the campaign only if it is still "queued".
  /// Returns the running record on success, nullopt when another process
  /// (or a cancel) got there first.
  std::optional<campaign_record> try_claim(const std::string& tenant,
                                           const std::string& id, double now);

  /// Retention: journal a "deleted" tombstone for the campaign. The record
  /// disappears from every query (its id is never reused — the tombstone
  /// keeps id accounting monotone); the caller owns removing the campaign
  /// directory. Throws `bad_argument` when the campaign is unknown.
  campaign_record remove(const std::string& tenant, const std::string& id,
                         double now);

  /// queued+running campaigns of `tenant` (the quota gauge).
  std::size_t active_count(const std::string& tenant) const;

  /// Oldest queued campaign across every tenant (global FIFO), if any.
  std::optional<campaign_record> oldest_queued() const;

  const std::string& data_dir() const { return options_.data_dir; }
  std::size_t tenant_quota() const { return options_.tenant_quota; }

 private:
  /// Fold ledger lines appended (by any process) since the last sync into
  /// `records_`. Called with `mutex_` held before every read and, under the
  /// store's exclusive lock, before every mutation.
  void sync_locked() const;
  void append_locked(const campaign_record& record) const;
  const campaign_record* find_locked(const std::string& tenant,
                                     const std::string& id) const;

  mutable std::mutex mutex_;
  options options_;
  // The fold state is a cache over the shared ledger, refreshed by
  // const readers — hence mutable.
  mutable std::vector<campaign_record> records_;        ///< submit (id) order
  mutable std::map<std::string, std::size_t> index_;    ///< id -> records_ slot
  mutable std::size_t next_id_ = 1;
  mutable std::uint64_t cursor_ = 0;  ///< ledger position folded so far
  mutable std::unique_ptr<store::segment_log> log_;
};

}  // namespace boson::service
