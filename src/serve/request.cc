#include "serve/request.h"

namespace naru {

const char* ResultProvenanceToString(ResultProvenance provenance) {
  switch (provenance) {
    case ResultProvenance::kUnknown:
      return "unknown";
    case ResultProvenance::kCacheHit:
      return "cache_hit";
    case ResultProvenance::kExact:
      return "exact";
    case ResultProvenance::kEnumerated:
      return "enumerated";
    case ResultProvenance::kPlannedGroup:
      return "planned_group";
    case ResultProvenance::kShed:
      return "shed";
  }
  return "unknown";
}

}  // namespace naru
