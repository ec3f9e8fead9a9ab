#include "core/bundle.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace naru {

namespace {
constexpr char kMagicLine[] = "naru-bundle-v1";

// *total += a * b; false once the result no longer fits in 64 bits.
bool AddProduct(uint64_t a, uint64_t b, uint64_t* total) {
  uint64_t product = 0;
  return !__builtin_mul_overflow(a, b, &product) &&
         !__builtin_add_overflow(*total, product, total);
}

// A lower bound on the parameter bytes of MadeModel(domains, cfg), from
// the layer shapes in made.cc and encoding.cc: embedding tables, every
// hidden layer and every head, weights and biases. Only a binary-encoded
// column's input width is undercounted (as 1). False on overflow.
bool MinParameterBytes(const std::vector<size_t>& domains,
                       const MadeModel::Config& cfg, uint64_t* bytes) {
  const EncoderConfig& enc = cfg.encoder;
  const auto embedded = [&](size_t d) {
    return d > enc.onehot_threshold && !enc.binary_for_large;
  };
  uint64_t floats = 0;
  uint64_t width = 0;  // the encoded input width
  bool ok = true;
  for (size_t d : domains) {
    const uint64_t w =
        d <= enc.onehot_threshold ? d : embedded(d) ? enc.embed_dim : 1;
    ok = ok && AddProduct(w, 1, &width);
    if (embedded(d)) ok = ok && AddProduct(d, enc.embed_dim, &floats);
  }
  for (size_t h : cfg.hidden_sizes) {
    ok = ok && AddProduct(width, h, &floats) && AddProduct(h, 1, &floats);
    width = h;
  }
  for (size_t d : domains) {
    const uint64_t out =
        cfg.embedding_reuse && embedded(d) ? enc.embed_dim : d;
    ok = ok && AddProduct(width, out, &floats) && AddProduct(out, 1, &floats);
  }
  *bytes = 0;
  return ok && AddProduct(floats, sizeof(float), bytes);
}
}  // namespace

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
  // The model allocates what the manifest asks for, so the manifest may
  // ask for no more than the weights file can fill.
  const std::string weights = path + ".weights";
  std::error_code ec;
  const uintmax_t weights_bytes = std::filesystem::file_size(weights, ec);
  if (ec) return Status::IOError("cannot open: " + weights);
  uint64_t need = 0;
  if (!MinParameterBytes(domains, cfg, &need) || need > weights_bytes) {
    return Status::InvalidArgument(StrFormat(
        "bundle %s: its sizes need more parameter bytes than the %llu of %s",
        path.c_str(), static_cast<unsigned long long>(weights_bytes),
        weights.c_str()));
  }
  auto model = std::make_unique<MadeModel>(domains, cfg);
  NARU_RETURN_NOT_OK(model->Load(weights));
  return model;
}

}  // namespace naru
