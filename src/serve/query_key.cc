#include "serve/query_key.h"

#include <cstring>

namespace naru {

namespace {

template <typename T>
void AppendRaw(T v, std::string* out) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

}  // namespace

void AppendRegionKey(const ValueSet& region, std::string* out) {
  switch (region.kind()) {
    case ValueSet::Kind::kAll:
      out->push_back('A');
      break;
    case ValueSet::Kind::kInterval:
      out->push_back('I');
      AppendRaw<int64_t>(region.lo(), out);
      AppendRaw<int64_t>(region.hi(), out);
      break;
    case ValueSet::Kind::kSet:
      out->push_back('S');
      AppendRaw<uint64_t>(region.codes().size(), out);
      for (int32_t c : region.codes()) AppendRaw<int32_t>(c, out);
      break;
  }
}

void AppendQueryKey(const Query& query, std::string* out) {
  AppendRaw<uint64_t>(query.num_columns(), out);
  for (size_t c = 0; c < query.num_columns(); ++c) {
    AppendRegionKey(query.region(c), out);
  }
}

std::string QueryKey(const Query& query) {
  std::string key;
  AppendQueryKey(query, &key);
  return key;
}

}  // namespace naru
