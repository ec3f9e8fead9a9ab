// Binary (de)serialization of named parameter sets.
//
// Format: magic "NARUPRM1", u64 count, then per parameter:
//   u32 name_len, name bytes, u64 rows, u64 cols, rows*cols float32.
// Loading matches parameters by name and requires identical shapes, so a
// model must be constructed with the same architecture before LoadParameters.
#pragma once

#include <string>
#include <vector>

#include "nn/parameter.h"
#include "util/status.h"

namespace naru {

/// Writes all parameter values to `path`.
Status SaveParameters(const std::string& path,
                      const std::vector<Parameter*>& params);

/// Reads parameter values from `path` into the matching (by name) entries
/// of `params`. Fails (InvalidArgument) unless the file holds every entry
/// of `params` exactly once, with its shape, and nothing else.
Status LoadParameters(const std::string& path,
                      const std::vector<Parameter*>& params);

}  // namespace naru
