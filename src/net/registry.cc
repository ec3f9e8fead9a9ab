#include "net/registry.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"

namespace naru {

Status Tenant::ValidateRegions(const std::vector<ValueSet>& regions) const {
  if (regions.size() != domains.size()) {
    return Status::InvalidArgument(StrFormat(
        "query has %zu columns but tenant '%s' serves %zu", regions.size(),
        name.c_str(), domains.size()));
  }
  for (size_t c = 0; c < regions.size(); ++c) {
    if (regions[c].domain() != domains[c]) {
      return Status::InvalidArgument(StrFormat(
          "column %zu domain mismatch: query says %zu, tenant '%s' has %zu",
          c, regions[c].domain(), name.c_str(), domains[c]));
    }
  }
  return Status::OK();
}

Status ModelRegistry::AddTenant(const std::string& name,
                                std::string table_name, size_t num_rows,
                                std::vector<size_t> domains,
                                std::unique_ptr<ConditionalModel> model,
                                size_t model_size_bytes,
                                const TenantOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("tenant name must not be empty");
  }
  if (model == nullptr) {
    return Status::InvalidArgument(
        StrFormat("tenant '%s' registered without a model", name.c_str()));
  }
  auto tenant = std::make_shared<Tenant>();
  tenant->name = name;
  tenant->table_name = std::move(table_name);
  tenant->num_rows = num_rows;
  tenant->model_size_bytes = model_size_bytes;
  tenant->domains = std::move(domains);
  tenant->options = options;
  tenant->model = std::move(model);
  tenant->estimator = std::make_unique<NaruEstimator>(
      tenant->model.get(), options.estimator, model_size_bytes, name);
  tenant->engine = std::make_unique<AsyncEngine>(options.engine);

  MutexLock lock(&mu_);
  if (tenants_.count(name) != 0) {
    return Status::AlreadyExists(
        StrFormat("tenant '%s' is already registered", name.c_str()));
  }
  tenants_.emplace(name, std::move(tenant));
  return Status::OK();
}

bool ModelRegistry::HasTenant(const std::string& name) const {
  MutexLock lock(&mu_);
  return tenants_.count(name) != 0;
}

std::shared_ptr<Tenant> ModelRegistry::GetTenant(
    const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

Status ModelRegistry::DropTenant(const std::string& name) {
  MutexLock lock(&mu_);
  if (tenants_.erase(name) == 0) {
    return Status::NotFound(
        StrFormat("no tenant named '%s'", name.c_str()));
  }
  return Status::OK();
}

std::vector<std::string> ModelRegistry::TenantNames() const {
  std::vector<std::string> names;
  {
    MutexLock lock(&mu_);
    names.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

size_t ModelRegistry::NumTenants() const {
  MutexLock lock(&mu_);
  return tenants_.size();
}

void ModelRegistry::DrainAll() {
  // Snapshot first: Drain blocks, and holding mu_ across it would stall
  // concurrent lookups (and could deadlock a callback that resolves a
  // tenant).
  std::vector<std::shared_ptr<Tenant>> snapshot;
  {
    MutexLock lock(&mu_);
    snapshot.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) snapshot.push_back(tenant);
  }
  for (const auto& tenant : snapshot) tenant->engine->Drain();
}

std::string ModelRegistry::FormatTenantList() const {
  std::string out;
  for (const std::string& name : TenantNames()) {
    const std::shared_ptr<Tenant> tenant = GetTenant(name);
    if (tenant == nullptr) continue;  // dropped between the two calls
    const AsyncEngineConfig& acfg = tenant->options.engine;
    out += StrFormat(
        "%s  table=%s cols=%zu rows=%zu model_kb=%.1f samples=%zu "
        "max_pending=%zu cache_mb=%.1f\n",
        name.c_str(), tenant->table_name.c_str(), tenant->domains.size(),
        tenant->num_rows, tenant->model_size_bytes / 1024.0,
        tenant->options.estimator.num_samples, acfg.max_pending,
        acfg.engine.cache_budget_bytes / (1024.0 * 1024.0));
  }
  if (out.empty()) out = "(no tenants registered)\n";
  return out;
}

std::string ModelRegistry::FormatTenantStats(const std::string& name) const {
  std::vector<std::string> names;
  if (name.empty()) {
    names = TenantNames();
    if (names.empty()) return "(no tenants registered)\n";
  } else {
    names.push_back(name);
  }
  std::string out;
  for (const std::string& tenant_name : names) {
    const std::shared_ptr<Tenant> tenant = GetTenant(tenant_name);
    if (tenant == nullptr) {
      out += StrFormat("no tenant named '%s'\n", tenant_name.c_str());
      continue;
    }
    out += StrFormat("== tenant %s ==\n", tenant_name.c_str());
    out += FormatEngineStats(tenant->engine->engine()->stats(),
                             tenant->engine->async_stats());
  }
  return out;
}

}  // namespace naru
