// Wire protocol for the network serving front-end (src/net).
//
// Framing: every message is a length-prefixed frame
//
//   +----------------+---------+-------+----------------------+
//   | u32 payload_len| u8 ver  | u8 ty | type-specific body   |
//   +----------------+---------+-------+----------------------+
//    4 bytes, LE      kProtocolVersion  (payload_len counts
//                                        everything after the
//                                        length field)
//
// All integers are little-endian; doubles cross the wire as their IEEE-754
// bit pattern in a u64, so encode/decode round-trips are BIT-exact (the
// contract tests/test_net.cc asserts): an estimate computed server-side is
// the same double the client prints, NaN payloads included. Strings are
// u32 length + raw bytes (no terminator, any bytes allowed).
//
// The payload serializes the typed serving API (serve/request.h)
// losslessly. Two impedance mismatches are resolved here:
//   - EstimateOptions::deadline is an ABSOLUTE steady_clock instant that
//     cannot cross machines; the wire carries the RELATIVE deadline in
//     milliseconds (< 0 = none) and the SERVER pins it to its own clock
//     when it decodes the request — identical semantics to the in-process
//     `~<ms>` trace token (serve/trace_format.h).
//   - A Query is reconstructed from its per-column regions; the canonical
//     region encoding here (kind + domain + payload) is a superset of
//     serve/query_key.h's cache key (which omits domains because the
//     engine already knows the model).
//
// Error handling: decoding NEVER dies on malformed input. A frame whose
// LENGTH PREFIX is unusable (payload larger than `max_payload`, or too
// short to carry version+type) poisons the stream — the reader cannot
// resynchronize, so the server replies with a typed ERROR frame and closes
// the connection. Every other malformation (bad version, unknown type,
// truncated or trailing body bytes, out-of-range enum, garbage tenant) is
// confined to its frame: the server replies with a typed error and keeps
// serving the connection's next frame.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "query/query.h"
#include "query/value_set.h"
#include "serve/request.h"
#include "util/status.h"

namespace naru {

/// Version byte of every frame this build emits. A decoder receiving a
/// different version replies with a typed error (it cannot know the body
/// layout) but the FRAME boundary is still trusted — the length prefix is
/// version-invariant by design, so the stream survives.
inline constexpr uint8_t kProtocolVersion = 1;

/// Hard ceiling a reader enforces on the length prefix before trusting it.
/// Generous for real queries (a frame is a few hundred bytes unless an
/// IN-list is huge) while keeping a corrupt / hostile prefix from turning
/// into a multi-gigabyte allocation.
inline constexpr size_t kMaxFramePayloadBytes = 16u << 20;

/// Bytes of the length prefix itself.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Frame discriminator (the byte after the version).
enum class FrameType : uint8_t {
  kEstimateRequest = 1,   ///< client -> server: one typed estimate request
  kEstimateResponse = 2,  ///< server -> client: its typed result
  kControlRequest = 3,    ///< client -> server: STATS / LIST verb
  kControlResponse = 4,   ///< server -> client: rendered control output
  /// server -> client: a frame could not be decoded (or the stream is
  /// poisoned). Carries the Status and the request id when one was
  /// recovered before the malformation (0 otherwise).
  kError = 5,
};

/// Control verbs (kControlRequest body).
enum class ControlVerb : uint8_t {
  kStats = 1,  ///< per-tenant EngineStats rendering (all tenants when the
               ///< request's tenant field is empty)
  kList = 2,   ///< one line per registered tenant: name, columns, rows
};

/// One estimate request as it crosses the wire. `request_id` is assigned
/// by the client and echoed verbatim in the response so requests can be
/// pipelined — the server resolves futures in completion order, not
/// submission order.
struct WireEstimateRequest {
  uint64_t request_id = 0;
  std::string tenant;
  /// Per-column allowed regions (table order), reconstructed into a Query
  /// server-side. Domains ride along so the server can validate them
  /// against the tenant's schema before touching the model.
  std::vector<ValueSet> regions;
  /// EstimateOptions fields, wire-safe forms (see header comment).
  uint64_t num_samples = 0;
  double deadline_ms = -1.0;  ///< relative ms; < 0, NaN or +inf = none
  RequestPriority priority = RequestPriority::kNormal;
  CachePolicy cache_policy = CachePolicy::kReadWrite;
};

/// One estimate result as it crosses the wire: every field of
/// EstimateResult (serve/request.h), bit-exactly.
struct WireEstimateResponse {
  uint64_t request_id = 0;
  StatusCode status_code = StatusCode::kOk;
  std::string status_message;
  double estimate = 0.0;
  double std_error = 0.0;
  ResultProvenance provenance = ResultProvenance::kUnknown;
  uint64_t samples_used = 0;
  double queue_ms = 0.0;
  double compute_ms = 0.0;
  double retry_after_ms = 0.0;
};

struct WireControlRequest {
  uint64_t request_id = 0;
  ControlVerb verb = ControlVerb::kStats;
  /// STATS: tenant to report on (empty = every tenant). Ignored by LIST.
  std::string tenant;
};

struct WireControlResponse {
  uint64_t request_id = 0;
  StatusCode status_code = StatusCode::kOk;
  std::string status_message;
  std::string text;  ///< rendered stats / tenant list
};

/// Typed decode-failure reply. `fatal` mirrors what the server did next:
/// true when the stream was poisoned (unusable length prefix) and the
/// connection is being closed, false when only this frame was rejected.
struct WireError {
  uint64_t request_id = 0;  ///< 0 when the id could not be recovered
  StatusCode status_code = StatusCode::kInvalidArgument;
  std::string message;
  bool fatal = false;
};

/// A decoded frame: `type` selects which member is meaningful.
struct Frame {
  FrameType type = FrameType::kError;
  WireEstimateRequest request;
  WireEstimateResponse response;
  WireControlRequest control;
  WireControlResponse control_response;
  WireError error;
};

// ---- Encoding (always succeeds; output is the full frame incl. prefix) --

void EncodeEstimateRequest(const WireEstimateRequest& msg, std::string* out);
void EncodeEstimateResponse(const WireEstimateResponse& msg,
                            std::string* out);
void EncodeControlRequest(const WireControlRequest& msg, std::string* out);
void EncodeControlResponse(const WireControlResponse& msg, std::string* out);
void EncodeError(const WireError& msg, std::string* out);

// ---- Decoding -----------------------------------------------------------

/// Inspects the front of a receive buffer. Returns the total byte size
/// (prefix + payload) of the first frame once it is fully buffered, or 0
/// when more bytes are needed. An unusable length prefix — payload larger
/// than `max_payload` or too small for version+type — returns 0 and sets
/// *error: the stream cannot be resynchronized (close after replying).
size_t FrameSizeBytes(std::string_view buf, size_t max_payload,
                      Status* error);

/// Decodes one frame payload (the bytes AFTER the length prefix; pass
/// exactly the payload, e.g. buf.substr(4, size - 4)). On any
/// malformation returns InvalidArgument with a reason and leaves *out
/// unspecified; the caller's stream position is still valid (the frame
/// boundary came from FrameSizeBytes).
Status DecodeFrame(std::string_view payload, Frame* out);

// ---- Conversions to/from the typed serving API --------------------------

/// Builds the server-side EstimateRequest: reconstructs the Query from the
/// wire regions and pins the relative deadline to `now` (the decode
/// instant), matching the in-process `~<ms>` semantics. A negative or NaN
/// deadline, or one too far out for `now` plus it to be represented (+inf
/// included), is no deadline. num_samples passes through; the engine
/// rejects budgets above EstimateOptions::kMaxSamples.
EstimateRequest ToEstimateRequest(const WireEstimateRequest& wire,
                                  std::chrono::steady_clock::time_point now);

/// Flattens a served EstimateResult into its wire form, echoing `id`.
WireEstimateResponse ToWireResponse(uint64_t id, const EstimateResult& res);

/// Reconstructs the client-side EstimateResult (estimate, Status,
/// std_error, provenance, samples, latencies, retry hint — bit-exact).
EstimateResult FromWireResponse(const WireEstimateResponse& wire);

}  // namespace naru
