// Multi-tenant model registry: many named (model, table) tenants served
// from ONE process.
//
// The serving stack below this point is single-tenant: one NaruEstimator
// over one model, one AsyncEngine with one cache budget and one admission
// quota. A production estimation service hosts MANY models — per table,
// per schema version, per customer — behind one endpoint, and the failure
// mode that matters is CROSS-tenant interference: one tenant's overload
// must not shed, evict, or even perturb another tenant's counters.
//
// The registry is the catalog (shape after Hyrise's StorageManager:
// add / has / get / drop / names over a mutex-guarded map). ISOLATION is
// structural, not scheduled: every tenant owns a full serving stack —
// its own NaruEstimator, its own AsyncEngine (dispatcher thread, pending
// queues, admission quota via AsyncEngineConfig::max_pending), and its
// own InferenceEngine (exact-result caches under the tenant's private
// byte budget, EngineStats counters). No map, cache, queue, or counter is
// shared between tenants, so a saturated tenant sheds against its own
// quota and evicts from its own caches while a quiet tenant's estimates
// stay bit-identical to a solo run (asserted in tests/test_net.cc).
//
// Lifetime: Get() hands out shared_ptr<Tenant>; DropTenant only removes
// the catalog entry, so a tenant a connection still holds stays alive
// (and its in-flight requests resolve) until the last reference drops.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/conditional_model.h"
#include "core/naru_estimator.h"
#include "serve/async_engine.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace naru {

/// Per-tenant serving configuration. The engine config carries the
/// tenant's ISOLATION knobs: cache byte budget
/// (engine.engine.cache_budget_bytes), admission quota
/// (engine.max_pending), thread count, and flush geometry.
struct TenantOptions {
  NaruEstimatorConfig estimator;
  AsyncEngineConfig engine;
};

/// One registered tenant: a model plus its private serving stack.
/// Created by ModelRegistry::AddTenant; immutable afterwards except
/// through the engine.
struct Tenant {
  std::string name;
  std::string table_name;
  size_t num_rows = 0;
  size_t model_size_bytes = 0;
  /// Table-column domain sizes, captured at registration: the wire
  /// front-end validates every incoming query against these BEFORE the
  /// model sees it (ValidateRegions).
  std::vector<size_t> domains;
  TenantOptions options;

  std::unique_ptr<ConditionalModel> model;
  std::unique_ptr<NaruEstimator> estimator;
  std::unique_ptr<AsyncEngine> engine;

  /// NotFound/InvalidArgument when `regions` does not match this tenant's
  /// schema (column count or any per-column domain size). A query that
  /// passes is safe to hand to the tenant's sampler.
  Status ValidateRegions(const std::vector<ValueSet>& regions) const;
};

/// The catalog. Thread-safe: any number of threads may resolve tenants
/// while others add or drop them.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers `model` under `name` with a freshly built estimator and
  /// AsyncEngine. `domains` are the table-column domain sizes the wire
  /// front-end validates queries against; `table_name` / `num_rows` /
  /// `model_size_bytes` are catalog metadata (LIST output, estimator
  /// construction). Fails with AlreadyExists on a duplicate name and
  /// InvalidArgument on an empty name or null model.
  Status AddTenant(const std::string& name, std::string table_name,
                   size_t num_rows, std::vector<size_t> domains,
                   std::unique_ptr<ConditionalModel> model,
                   size_t model_size_bytes, const TenantOptions& options);

  bool HasTenant(const std::string& name) const;

  /// The tenant, or nullptr when unknown. The returned shared_ptr keeps
  /// the tenant (and its engines) alive across a concurrent DropTenant.
  std::shared_ptr<Tenant> GetTenant(const std::string& name) const;

  /// Unregisters the tenant; outstanding shared_ptrs keep it alive until
  /// released. NotFound when no such tenant exists.
  Status DropTenant(const std::string& name);

  /// Registered tenant names, sorted (stable LIST output).
  std::vector<std::string> TenantNames() const;

  size_t NumTenants() const;

  /// Drains every tenant's AsyncEngine (graceful-shutdown step: every
  /// already-submitted request resolves before this returns).
  void DrainAll();

  /// One line per tenant: name, columns, rows, model KB, quota knobs —
  /// the LIST control verb's payload.
  std::string FormatTenantList() const;

  /// FormatEngineStats of one tenant's serving stack, or of every tenant
  /// when `name` is empty — the STATS control verb's payload. NotFound
  /// text when the tenant is unknown.
  std::string FormatTenantStats(const std::string& name) const;

 private:
  /// Guards the catalog map only: a resolved shared_ptr<Tenant> is used
  /// outside the lock (tenant stacks synchronize themselves), so no
  /// tenant-level lock is ever taken while mu_ is held — registry is the
  /// TOP of the lock hierarchy (registry -> tenant -> engine).
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Tenant>> tenants_
      NARU_GUARDED_BY(mu_);
};

}  // namespace naru
