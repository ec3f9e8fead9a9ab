#include "core/bundle.h"

#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace naru {

namespace {
constexpr char kMagicLine[] = "naru-bundle-v1";
}

Status SaveModelBundle(const std::string& path, MadeModel* model) {
  std::ofstream os(path);
  if (!os.good()) return Status::IOError("cannot open for write: " + path);
  const MadeModel::Config& cfg = model->config();
  os << kMagicLine << "\n";
  os << "columns " << model->num_columns() << "\n";
  os << "domains";
  for (size_t c = 0; c < model->num_columns(); ++c) {
    os << ' ' << model->DomainSize(c);
  }
  os << "\n";
  os << "hidden";
  for (size_t h : cfg.hidden_sizes) os << ' ' << h;
  os << "\n";
  os << "onehot_threshold " << cfg.encoder.onehot_threshold << "\n";
  os << "embed_dim " << cfg.encoder.embed_dim << "\n";
  os << "binary_for_large " << (cfg.encoder.binary_for_large ? 1 : 0)
     << "\n";
  os << "embedding_reuse " << (cfg.embedding_reuse ? 1 : 0) << "\n";
  os << "residual " << (cfg.residual ? 1 : 0) << "\n";
  os << "seed " << cfg.seed << "\n";
  if (!os.good()) return Status::IOError("manifest write failed: " + path);
  os.close();
  return model->Save(path + ".weights");
}

Result<std::unique_ptr<MadeModel>> LoadModelBundle(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) return Status::IOError("cannot open: " + path);
  std::string line;
  if (!std::getline(is, line) || line != kMagicLine) {
    return Status::InvalidArgument("not a naru bundle: " + path);
  }

  size_t columns = 0;
  std::vector<size_t> domains;
  MadeModel::Config cfg;
  cfg.hidden_sizes.clear();

  while (std::getline(is, line)) {
    std::istringstream ss(line);
    std::string key;
    ss >> key;
    if (key == "columns") {
      ss >> columns;
    } else if (key == "domains") {
      size_t d;
      while (ss >> d) domains.push_back(d);
    } else if (key == "hidden") {
      size_t h;
      while (ss >> h) cfg.hidden_sizes.push_back(h);
    } else if (key == "onehot_threshold") {
      ss >> cfg.encoder.onehot_threshold;
    } else if (key == "embed_dim") {
      ss >> cfg.encoder.embed_dim;
    } else if (key == "binary_for_large") {
      int v = 0;
      ss >> v;
      cfg.encoder.binary_for_large = v != 0;
    } else if (key == "embedding_reuse") {
      int v = 0;
      ss >> v;
      cfg.embedding_reuse = v != 0;
    } else if (key == "residual") {
      int v = 0;
      ss >> v;
      cfg.residual = v != 0;
    } else if (key == "seed") {
      ss >> cfg.seed;
    } else if (!key.empty()) {
      return Status::InvalidArgument("unknown bundle key: " + key);
    }
  }
  if (columns == 0 || domains.size() != columns) {
    return Status::InvalidArgument(
        StrFormat("bundle %s: domains (%zu) inconsistent with columns (%zu)",
                  path.c_str(), domains.size(), columns));
  }
  // Zero sizes would trip the model constructor's checks and abort the
  // loading process; a manifest is outside input, so refuse them here.
  for (size_t c = 0; c < domains.size(); ++c) {
    if (domains[c] == 0) {
      return Status::InvalidArgument(StrFormat(
          "bundle %s: column %zu has an empty domain", path.c_str(), c));
    }
    const bool embedded = domains[c] > cfg.encoder.onehot_threshold &&
                          !cfg.encoder.binary_for_large;
    if (embedded && cfg.encoder.embed_dim == 0) {
      return Status::InvalidArgument(StrFormat(
          "bundle %s: column %zu is embedded with embed_dim 0", path.c_str(),
          c));
    }
  }
  for (size_t h : cfg.hidden_sizes) {
    if (h == 0) {
      return Status::InvalidArgument(
          StrFormat("bundle %s: a hidden layer has 0 units", path.c_str()));
    }
  }
  auto model = std::make_unique<MadeModel>(domains, cfg);
  NARU_RETURN_NOT_OK(model->Load(path + ".weights"));
  return model;
}

}  // namespace naru
