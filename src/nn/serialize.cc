#include "nn/serialize.h"

#include <cstring>
#include <fstream>
#include <unordered_map>

#include "util/string_util.h"

namespace naru {

namespace {
constexpr char kMagic[8] = {'N', 'A', 'R', 'U', 'P', 'R', 'M', '1'};

template <typename T>
void WritePod(std::ofstream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& is, T* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(T));
  return is.good();
}
}  // namespace

Status SaveParameters(const std::string& path,
                      const std::vector<Parameter*>& params) {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) return Status::IOError("cannot open for write: " + path);
  os.write(kMagic, sizeof(kMagic));
  WritePod<uint64_t>(os, params.size());
  for (const auto* p : params) {
    WritePod<uint32_t>(os, static_cast<uint32_t>(p->name.size()));
    os.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    WritePod<uint64_t>(os, p->value.rows());
    WritePod<uint64_t>(os, p->value.cols());
    // Row-wise: the file holds rows*cols floats regardless of the in-memory
    // padded stride (matrix.h), so the format is layout-independent.
    for (size_t r = 0; r < p->value.rows(); ++r) {
      os.write(reinterpret_cast<const char*>(p->value.Row(r)),
               static_cast<std::streamsize>(p->value.cols() * sizeof(float)));
    }
  }
  if (!os.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status LoadParameters(const std::string& path,
                      const std::vector<Parameter*>& params) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is.good()) return Status::IOError("cannot open: " + path);
  // Lengths read from the file are checked against what is left of it
  // before anything is allocated for them.
  const std::streamoff file_size = is.tellg();
  is.seekg(0);
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad magic in parameter file: " + path);
  }
  // Parameters not read yet; each file entry takes its own out, so a
  // repeated or unknown name finds nothing and what is left was missing.
  std::unordered_map<std::string, Parameter*> by_name;
  for (auto* p : params) by_name[p->name] = p;

  uint64_t count = 0;
  if (!ReadPod(is, &count)) return Status::IOError("truncated file");
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!ReadPod(is, &name_len)) return Status::IOError("truncated file");
    if (static_cast<std::streamoff>(name_len) > file_size - is.tellg()) {
      return Status::IOError(StrFormat(
          "parameter name length %u exceeds the %lld bytes left in %s",
          name_len, static_cast<long long>(file_size - is.tellg()),
          path.c_str()));
    }
    std::string name(name_len, '\0');
    is.read(name.data(), name_len);
    uint64_t rows = 0;
    uint64_t cols = 0;
    if (!ReadPod(is, &rows) || !ReadPod(is, &cols)) {
      return Status::IOError("truncated file");
    }
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::InvalidArgument("unknown or repeated parameter in file: " +
                                     name);
    }
    Parameter* p = it->second;
    by_name.erase(it);
    if (p->value.rows() != rows || p->value.cols() != cols) {
      return Status::InvalidArgument(StrFormat(
          "shape mismatch for %s: file %llux%llu vs model %zux%zu",
          name.c_str(), static_cast<unsigned long long>(rows),
          static_cast<unsigned long long>(cols), p->value.rows(),
          p->value.cols()));
    }
    for (size_t r = 0; r < p->value.rows(); ++r) {
      is.read(reinterpret_cast<char*>(p->value.Row(r)),
              static_cast<std::streamsize>(p->value.cols() * sizeof(float)));
    }
    if (!is.good()) return Status::IOError("truncated tensor data");
  }
  for (const auto* p : params) {
    if (by_name.count(p->name) != 0) {
      return Status::InvalidArgument(StrFormat(
          "parameter %s missing from %s", p->name.c_str(), path.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace naru
