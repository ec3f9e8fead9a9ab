// Exact byte-string cache keys for query regions.
//
// The serving engine memoizes exact full-query results in hash maps, and
// the plan compiler compares per-column region descriptors. Keys are
// canonical byte serializations of ValueSets, not hashes, so two queries
// share an entry only when their allowed regions are literally identical —
// a cache hit can never change an estimate.
#pragma once

#include <string>

#include "query/query.h"
#include "query/value_set.h"

namespace naru {

/// Appends a canonical encoding of `region` to *out. Intervals and
/// explicit sets that allow the same codes encode differently; that is
/// fine (a missed hit, never a wrong one).
void AppendRegionKey(const ValueSet& region, std::string* out);

/// Appends the canonical key of a whole query (all per-column regions in
/// order) to *out — the allocation-free form the serving engine's keyed
/// batch pass uses to build composite cache keys in place.
void AppendQueryKey(const Query& query, std::string* out);

/// Canonical key of a whole query: all per-column regions in order.
std::string QueryKey(const Query& query);

}  // namespace naru
