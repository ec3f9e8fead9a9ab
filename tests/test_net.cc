// Tests for the network serving front-end (src/net/): the wire protocol's
// lossless round-trip contract, the malformed-input taxonomy, the
// multi-tenant registry catalog, and the live server over a real loopback
// socket — bit-exact estimates, per-frame error recovery, graceful drain
// with no dropped in-flight futures, and two-tenant isolation under
// flood.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/made.h"
#include "core/naru_estimator.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/registry.h"
#include "net/server.h"
#include "query/workload.h"
#include "serve/trace_format.h"
#include "util/thread_pool.h"

namespace naru {
namespace {

// ---- Shared fixtures (the serving-test idiom) ---------------------------

Table SmallTable(uint64_t seed) {
  return MakeRandomTable(600, {7, 5, 9, 4, 6}, seed, /*skew=*/1.0);
}

std::unique_ptr<MadeModel> SmallTrainedModel(const Table& table,
                                             uint64_t seed) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {24, 24};
  cfg.encoder.onehot_threshold = 16;
  cfg.seed = seed;
  auto model = std::make_unique<MadeModel>(
      std::vector<size_t>{7, 5, 9, 4, 6}, cfg);
  TrainerConfig tcfg;
  tcfg.epochs = 2;
  tcfg.batch_size = 128;
  Trainer(model.get(), tcfg).Train(table);
  return model;
}

std::vector<Query> SmallWorkload(const Table& table, size_t n,
                                 uint64_t seed) {
  WorkloadConfig wcfg;
  wcfg.num_queries = n;
  wcfg.min_filters = 1;
  wcfg.max_filters = 5;
  wcfg.seed = seed;
  return GenerateWorkload(table, wcfg);
}

std::vector<size_t> TableDomains(const Table& table) {
  std::vector<size_t> domains;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    domains.push_back(table.column(c).DomainSize());
  }
  return domains;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Little-endian raw-byte helpers for hand-crafting (mal)formed frames.
void AppendU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Wraps a payload in a length prefix (the payload may be deliberately
/// malformed; the prefix is honest unless `lie` overrides it).
std::string WrapFrame(const std::string& payload) {
  std::string out;
  AppendU32(static_cast<uint32_t>(payload.size()), &out);
  out += payload;
  return out;
}

WireEstimateRequest SampleRequest() {
  WireEstimateRequest msg;
  msg.request_id = 0x0123456789abcdefull;
  msg.tenant = "tenant-x";
  msg.regions.push_back(ValueSet::All(7));
  msg.regions.push_back(ValueSet::Interval(5, 1, 3));
  msg.regions.push_back(ValueSet::Set(9, {8, 0, 2, 2}));
  msg.regions.push_back(ValueSet::Empty(4));
  msg.num_samples = 512;
  msg.deadline_ms = 12.5;
  msg.priority = RequestPriority::kHigh;
  msg.cache_policy = CachePolicy::kBypass;
  return msg;
}

// ---- Wire protocol: lossless round trips --------------------------------

TEST(NetProtocol, EstimateRequestRoundTripsBitExactly) {
  const WireEstimateRequest msg = SampleRequest();
  std::string bytes;
  EncodeEstimateRequest(msg, &bytes);

  Status size_err;
  const size_t size = FrameSizeBytes(bytes, kMaxFramePayloadBytes,
                                     &size_err);
  ASSERT_TRUE(size_err.ok()) << size_err.ToString();
  ASSERT_EQ(size, bytes.size());

  Frame frame;
  ASSERT_TRUE(
      DecodeFrame(std::string_view(bytes).substr(kFrameHeaderBytes), &frame)
          .ok());
  ASSERT_EQ(frame.type, FrameType::kEstimateRequest);
  const WireEstimateRequest& got = frame.request;
  EXPECT_EQ(got.request_id, msg.request_id);
  EXPECT_EQ(got.tenant, msg.tenant);
  EXPECT_EQ(got.num_samples, msg.num_samples);
  EXPECT_EQ(Bits(got.deadline_ms), Bits(msg.deadline_ms));
  EXPECT_EQ(got.priority, msg.priority);
  EXPECT_EQ(got.cache_policy, msg.cache_policy);
  ASSERT_EQ(got.regions.size(), msg.regions.size());
  for (size_t i = 0; i < msg.regions.size(); ++i) {
    EXPECT_EQ(got.regions[i].kind(), msg.regions[i].kind()) << i;
    EXPECT_EQ(got.regions[i].domain(), msg.regions[i].domain()) << i;
    EXPECT_EQ(got.regions[i].Count(), msg.regions[i].Count()) << i;
  }

  // The strongest lossless check: re-encoding the decoded message must
  // reproduce the original frame byte for byte.
  std::string again;
  EncodeEstimateRequest(got, &again);
  ASSERT_EQ(again.size(), bytes.size());
  EXPECT_EQ(std::memcmp(again.data(), bytes.data(), bytes.size()), 0);
}

TEST(NetProtocol, ResponseCarriesDoublesAsExactBitPatterns) {
  WireEstimateResponse msg;
  msg.request_id = 42;
  msg.status_code = StatusCode::kDeadlineExceeded;
  msg.status_message = "expired before dispatch";
  msg.estimate = std::numeric_limits<double>::quiet_NaN();
  msg.std_error = std::numeric_limits<double>::infinity();
  msg.provenance = ResultProvenance::kShed;
  msg.samples_used = 0;
  msg.queue_ms = 0.1 + 0.2;  // a value with a non-terminating binary tail
  msg.compute_ms = 5e-324;   // smallest subnormal double
  msg.retry_after_ms = 17.25;

  std::string bytes;
  EncodeEstimateResponse(msg, &bytes);
  Frame frame;
  ASSERT_TRUE(
      DecodeFrame(std::string_view(bytes).substr(kFrameHeaderBytes), &frame)
          .ok());
  ASSERT_EQ(frame.type, FrameType::kEstimateResponse);
  const WireEstimateResponse& got = frame.response;
  EXPECT_EQ(got.request_id, msg.request_id);
  EXPECT_EQ(got.status_code, msg.status_code);
  EXPECT_EQ(got.status_message, msg.status_message);
  EXPECT_EQ(Bits(got.estimate), Bits(msg.estimate));  // NaN payload intact
  EXPECT_EQ(Bits(got.std_error), Bits(msg.std_error));
  EXPECT_EQ(Bits(got.queue_ms), Bits(msg.queue_ms));
  EXPECT_EQ(Bits(got.compute_ms), Bits(msg.compute_ms));
  EXPECT_EQ(Bits(got.retry_after_ms), Bits(msg.retry_after_ms));
  EXPECT_EQ(got.provenance, msg.provenance);
  EXPECT_EQ(got.samples_used, msg.samples_used);

  std::string again;
  EncodeEstimateResponse(got, &again);
  ASSERT_EQ(again, bytes);
}

TEST(NetProtocol, ControlAndErrorFramesRoundTrip) {
  WireControlRequest creq;
  creq.request_id = 7;
  creq.verb = ControlVerb::kList;
  creq.tenant = "alpha";
  std::string bytes;
  EncodeControlRequest(creq, &bytes);
  Frame frame;
  ASSERT_TRUE(
      DecodeFrame(std::string_view(bytes).substr(kFrameHeaderBytes), &frame)
          .ok());
  ASSERT_EQ(frame.type, FrameType::kControlRequest);
  EXPECT_EQ(frame.control.request_id, 7u);
  EXPECT_EQ(frame.control.verb, ControlVerb::kList);
  EXPECT_EQ(frame.control.tenant, "alpha");

  WireControlResponse cresp;
  cresp.request_id = 7;
  cresp.status_code = StatusCode::kNotFound;
  cresp.status_message = "no tenant named 'zeta'";
  cresp.text = "line1\nline2\n";
  bytes.clear();
  EncodeControlResponse(cresp, &bytes);
  ASSERT_TRUE(
      DecodeFrame(std::string_view(bytes).substr(kFrameHeaderBytes), &frame)
          .ok());
  ASSERT_EQ(frame.type, FrameType::kControlResponse);
  EXPECT_EQ(frame.control_response.status_code, StatusCode::kNotFound);
  EXPECT_EQ(frame.control_response.text, "line1\nline2\n");

  WireError err;
  err.request_id = 9;
  err.status_code = StatusCode::kInvalidArgument;
  err.message = "trailing bytes after body";
  err.fatal = true;
  bytes.clear();
  EncodeError(err, &bytes);
  ASSERT_TRUE(
      DecodeFrame(std::string_view(bytes).substr(kFrameHeaderBytes), &frame)
          .ok());
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.error.request_id, 9u);
  EXPECT_EQ(frame.error.message, "trailing bytes after body");
  EXPECT_TRUE(frame.error.fatal);
}

TEST(NetProtocol, FrameSizeBytesHandlesPartialAndPoisonedPrefixes) {
  Status error;
  // Nothing buffered / partial prefix / partial payload: 0, no error.
  EXPECT_EQ(FrameSizeBytes("", kMaxFramePayloadBytes, &error), 0u);
  EXPECT_TRUE(error.ok());
  EXPECT_EQ(FrameSizeBytes("\x02\x00", kMaxFramePayloadBytes, &error), 0u);
  EXPECT_TRUE(error.ok());
  std::string partial;
  AppendU32(10, &partial);
  partial += "abc";  // 3 of 10 payload bytes buffered
  EXPECT_EQ(FrameSizeBytes(partial, kMaxFramePayloadBytes, &error), 0u);
  EXPECT_TRUE(error.ok());

  // A complete minimal frame.
  std::string whole;
  AppendU32(2, &whole);
  whole += '\x01';
  whole += '\x05';
  EXPECT_EQ(FrameSizeBytes(whole, kMaxFramePayloadBytes, &error), 6u);
  EXPECT_TRUE(error.ok());

  // Oversized prefix: poisoned stream, typed error.
  std::string oversized;
  AppendU32(0xffffffffu, &oversized);
  error = Status::OK();
  EXPECT_EQ(FrameSizeBytes(oversized, kMaxFramePayloadBytes, &error), 0u);
  EXPECT_FALSE(error.ok());

  // A payload too small to carry version + type is equally unusable.
  std::string tiny;
  AppendU32(1, &tiny);
  error = Status::OK();
  EXPECT_EQ(FrameSizeBytes(tiny, kMaxFramePayloadBytes, &error), 0u);
  EXPECT_FALSE(error.ok());
}

TEST(NetProtocol, DecodeRejectsEveryMalformationClass) {
  Frame frame;
  // Unsupported version.
  EXPECT_EQ(DecodeFrame(std::string("\x07\x01", 2), &frame).code(),
            StatusCode::kInvalidArgument);
  // Unknown frame type.
  EXPECT_EQ(DecodeFrame(std::string("\x01\x63", 2), &frame).code(),
            StatusCode::kInvalidArgument);
  // Truncated body (estimate request with nothing after the type byte).
  EXPECT_EQ(DecodeFrame(std::string("\x01\x01", 2), &frame).code(),
            StatusCode::kInvalidArgument);

  // Trailing bytes after a well-formed body.
  std::string bytes;
  WireControlRequest creq;
  creq.verb = ControlVerb::kStats;
  EncodeControlRequest(creq, &bytes);
  std::string payload(std::string_view(bytes).substr(kFrameHeaderBytes));
  payload += '\0';
  EXPECT_EQ(DecodeFrame(payload, &frame).code(),
            StatusCode::kInvalidArgument);

  // Out-of-range priority enum (penultimate payload byte by encode order).
  bytes.clear();
  EncodeEstimateRequest(SampleRequest(), &bytes);
  std::string bad(std::string_view(bytes).substr(kFrameHeaderBytes));
  bad[bad.size() - 2] = '\x09';
  Status st = DecodeFrame(bad, &frame);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("priority"), std::string::npos);

  // Out-of-range control verb.
  bytes.clear();
  EncodeControlRequest(creq, &bytes);
  std::string bad_verb(std::string_view(bytes).substr(kFrameHeaderBytes));
  // verb is the byte right after version+type+id: offset 2 + 8.
  bad_verb[2 + 8] = '\x09';
  EXPECT_EQ(DecodeFrame(bad_verb, &frame).code(),
            StatusCode::kInvalidArgument);

  // A region count the remaining bytes cannot possibly carry.
  std::string lie;
  lie += '\x01';  // version
  lie += '\x01';  // estimate request
  AppendU64(1, &lie);     // request_id
  AppendU32(0, &lie);     // tenant: empty string
  AppendU32(100000, &lie);  // region count with no region bytes behind it
  EXPECT_EQ(DecodeFrame(lie, &frame).code(), StatusCode::kInvalidArgument);
}

TEST(NetProtocol, DecodeRejectsRetiredAndUnknownProvenance) {
  // Provenance values are wire codes and never move. Code 4 (a sampled
  // walk outside any plan) is retired, so a response carrying it is as
  // malformed as one past the last code.
  EXPECT_EQ(static_cast<int>(ResultProvenance::kPlannedGroup), 5);
  EXPECT_EQ(static_cast<int>(ResultProvenance::kShed), 6);
  WireEstimateResponse resp;
  resp.request_id = 3;
  resp.estimate = 0.25;
  resp.provenance = ResultProvenance::kPlannedGroup;
  std::string bytes;
  EncodeEstimateResponse(resp, &bytes);
  std::string payload(std::string_view(bytes).substr(kFrameHeaderBytes));
  // The provenance byte is followed by samples_used (u64) and three f64
  // latencies.
  const size_t at = payload.size() - 1 - 4 * 8;
  ASSERT_EQ(payload[at], '\x05');
  Frame frame;
  ASSERT_TRUE(DecodeFrame(payload, &frame).ok());
  EXPECT_EQ(frame.response.provenance, ResultProvenance::kPlannedGroup);
  for (const char code : {'\x04', '\x07'}) {
    payload[at] = code;
    const Status st = DecodeFrame(payload, &frame);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << int{code};
    EXPECT_NE(st.ToString().find("provenance out of range"),
              std::string::npos)
        << st.ToString();
  }
}

TEST(NetProtocol, ToEstimateRequestPinsRelativeDeadline) {
  WireEstimateRequest wire = SampleRequest();
  wire.deadline_ms = 250.0;
  const auto now = std::chrono::steady_clock::now();
  EstimateRequest req = ToEstimateRequest(wire, now);
  ASSERT_TRUE(req.options.has_deadline());
  const double delta_ms =
      std::chrono::duration<double, std::milli>(req.options.deadline - now)
          .count();
  EXPECT_NEAR(delta_ms, 250.0, 1e-6);
  EXPECT_EQ(req.options.num_samples, wire.num_samples);
  EXPECT_EQ(req.options.priority, wire.priority);
  EXPECT_EQ(req.options.cache_policy, wire.cache_policy);
  EXPECT_EQ(req.query.regions().size(), wire.regions.size());

  wire.deadline_ms = -1.0;
  EXPECT_FALSE(ToEstimateRequest(wire, now).options.has_deadline());
}

// A deadline so loose that now + it overflows the clock's tick count is no
// deadline at all, not a deadline in the past.
TEST(NetProtocol, ToEstimateRequestMapsUnrepresentableDeadlinesToNone) {
  WireEstimateRequest wire = SampleRequest();
  const auto now = std::chrono::steady_clock::now();
  for (const double ms : {1e13, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    wire.deadline_ms = ms;
    EXPECT_FALSE(ToEstimateRequest(wire, now).options.has_deadline())
        << "deadline_ms " << ms;
  }
  wire.deadline_ms = 1e9;  // about 11.6 days: representable, so pinned
  const EstimateRequest req = ToEstimateRequest(wire, now);
  ASSERT_TRUE(req.options.has_deadline());
  const std::chrono::duration<double, std::milli> delta =
      req.options.deadline - now;
  EXPECT_NEAR(delta.count(), 1e9, 1e-3);
}

// An IN-list of distinct negative codes as large as one frame can carry
// clips to an empty region. Decoding runs on the server's only I/O thread,
// so clipping must stay linear in the list length: a quadratic clip would
// stall every connection for minutes at this size.
TEST(NetProtocol, NegativeInListAtThePayloadCapClipsToEmpty) {
  std::string head;
  head += static_cast<char>(kProtocolVersion);
  head += static_cast<char>(FrameType::kEstimateRequest);
  AppendU64(42, &head);                  // request id
  AppendU32(1, &head);                   // tenant
  head += 't';
  AppendU32(1, &head);                   // one region
  head += static_cast<char>(ValueSet::Kind::kSet);
  AppendU64(9, &head);                   // domain
  std::string tail;
  AppendU64(0, &tail);                   // num_samples
  AppendU64(0xbff0000000000000ull, &tail);  // deadline_ms = -1.0
  tail += static_cast<char>(RequestPriority::kNormal);
  tail += static_cast<char>(CachePolicy::kReadWrite);
  const size_t n = (kMaxFramePayloadBytes - head.size() - 4 - tail.size()) / 4;
  std::string payload = head;
  AppendU32(static_cast<uint32_t>(n), &payload);
  payload.reserve(payload.size() + 4 * n + tail.size());
  for (size_t k = 0; k < n; ++k) {
    AppendU32(static_cast<uint32_t>(-static_cast<int64_t>(k) - 1), &payload);
  }
  payload += tail;
  ASSERT_LE(payload.size(), kMaxFramePayloadBytes);
  ASSERT_GT(payload.size() + 4, kMaxFramePayloadBytes);

  Frame frame;
  const Status st = DecodeFrame(payload, &frame);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(frame.request.regions.size(), 1u);
  EXPECT_EQ(frame.request.regions[0].Count(), 0u);
  EXPECT_TRUE(Query(frame.request.regions).HasEmptyRegion());
}

TEST(NetProtocol, WireResponseReconstructsEstimateResultBitExactly) {
  EstimateResult result;
  result.estimate = 0.1234567890123456789;
  result.status = Status::OK();
  result.std_error = 3.5e-3;
  result.provenance = ResultProvenance::kPlannedGroup;
  result.samples_used = 777;
  result.queue_ms = 1.5;
  result.compute_ms = 2.25;
  result.retry_after_ms = 0.0;

  const WireEstimateResponse wire = ToWireResponse(31, result);
  EXPECT_EQ(wire.request_id, 31u);
  const EstimateResult back = FromWireResponse(wire);
  EXPECT_EQ(Bits(back.estimate), Bits(result.estimate));
  EXPECT_EQ(Bits(back.std_error), Bits(result.std_error));
  EXPECT_EQ(back.status.code(), StatusCode::kOk);
  EXPECT_EQ(back.provenance, result.provenance);
  EXPECT_EQ(back.samples_used, result.samples_used);

  // Non-OK results carry code + message through.
  EstimateResult shed;
  shed.status = Status::ResourceExhausted("pending queue full");
  shed.provenance = ResultProvenance::kShed;
  shed.retry_after_ms = 12.0;
  const EstimateResult back2 = FromWireResponse(ToWireResponse(32, shed));
  EXPECT_EQ(back2.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(back2.status.ToString().find("pending queue full"),
            std::string::npos);
  EXPECT_EQ(back2.retry_after_ms, 12.0);
}

// ---- Client helpers -----------------------------------------------------

TEST(NetClientHelpers, ParseHostPortAcceptsAllThreeForms) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(ParseHostPort("10.1.2.3:4567", &host, &port).ok());
  EXPECT_EQ(host, "10.1.2.3");
  EXPECT_EQ(port, 4567);
  ASSERT_TRUE(ParseHostPort(":8080", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  ASSERT_TRUE(ParseHostPort("9090", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9090);

  EXPECT_FALSE(ParseHostPort("", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("host:", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("host:abc", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("host:0", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("host:70000", &host, &port).ok());
}

TEST(NetClientHelpers, ListenSpecAcceptsEphemeralPort) {
  std::string host;
  uint16_t port = 1;
  ASSERT_TRUE(
      ParseHostPort("127.0.0.1:0", &host, &port, /*listen=*/true).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 0);
  ASSERT_TRUE(ParseHostPort(":0", &host, &port, /*listen=*/true).ok());
  EXPECT_EQ(port, 0);
  // Connect specs still need a real port.
  EXPECT_FALSE(ParseHostPort("127.0.0.1:0", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("host:abc", &host, &port, /*listen=*/true).ok());

  // What `naru_cli serve --listen 127.0.0.1:0` does with the parse: the
  // server binds an ephemeral port and reports it.
  ModelRegistry registry;
  NetServerConfig scfg;
  scfg.host = host;
  scfg.port = port;
  NetServer server(&registry, scfg);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_NE(server.port(), 0);
  server.Shutdown();
}

// ---- Trace-line format (shared by stdin serve / --connect / bench) ------

TEST(TraceFormat, ParsesPrefixTokensInAnyOrder) {
  std::string rest;
  TracePrefix p = ParseTracePrefix("@1250 ^high ~5 c0=1", &rest);
  EXPECT_EQ(p.arrival_ms, 1250.0);
  EXPECT_EQ(p.deadline_ms, 5.0);
  EXPECT_EQ(p.priority, RequestPriority::kHigh);
  EXPECT_EQ(rest, "c0=1");

  p = ParseTracePrefix("~2.5 ^low @10 c0=1 AND c1<=3", &rest);
  EXPECT_EQ(p.arrival_ms, 10.0);
  EXPECT_EQ(p.deadline_ms, 2.5);
  EXPECT_EQ(p.priority, RequestPriority::kLow);
  EXPECT_EQ(rest, "c0=1 AND c1<=3");

  // No prefix: defaults, whole line passes through.
  p = ParseTracePrefix("c0=1", &rest);
  EXPECT_LT(p.arrival_ms, 0);
  EXPECT_LT(p.deadline_ms, 0);
  EXPECT_EQ(p.priority, RequestPriority::kNormal);
  EXPECT_EQ(rest, "c0=1");

  // Malformed tokens are left in place for the predicate parser.
  p = ParseTracePrefix("^urgent c0=1", &rest);
  EXPECT_EQ(rest, "^urgent c0=1");
  p = ParseTracePrefix("@-5 c0=1", &rest);
  EXPECT_EQ(rest, "@-5 c0=1");
}

TEST(TraceFormat, ApplyToStampsOptionsAndFormatLineShowsRetryHint) {
  TracePrefix p;
  p.priority = RequestPriority::kHigh;
  p.deadline_ms = 100.0;
  EstimateOptions options;
  const auto before = std::chrono::steady_clock::now();
  p.ApplyTo(&options);
  EXPECT_EQ(options.priority, RequestPriority::kHigh);
  ASSERT_TRUE(options.has_deadline());
  EXPECT_GE(options.deadline, before);
  // Too far out for the clock: no deadline, not one in the past.
  p.deadline_ms = 1e13;
  EstimateOptions far;
  p.ApplyTo(&far);
  EXPECT_FALSE(far.has_deadline());

  EstimateResult ok;
  ok.estimate = 0.25;
  ok.status = Status::OK();
  const std::string line = FormatResultLine(ok, 1000, "c0=1");
  EXPECT_EQ(line, "0.25\t250\tc0=1\n");

  EstimateResult shed;
  shed.status = Status::ResourceExhausted("pending queue full");
  shed.retry_after_ms = 40.0;
  const std::string na = FormatResultLine(shed, 1000, "c0=1");
  EXPECT_NE(na.find("NA\tNA\tc0=1\t# "), std::string::npos);
  EXPECT_NE(na.find("(retry in 40 ms)"), std::string::npos);
}

// ---- Model registry -----------------------------------------------------

TEST(ModelRegistry, CatalogOperationsAndTypedFailures) {
  const Table table = SmallTable(11);
  ModelRegistry registry;
  TenantOptions topts;
  topts.engine.engine.num_threads = 1;

  auto add = [&](const std::string& name, uint64_t seed) {
    auto model = SmallTrainedModel(table, seed);
    const size_t bytes = model->SizeBytes();
    return registry.AddTenant(name, "t", table.num_rows(),
                              TableDomains(table), std::move(model), bytes,
                              topts);
  };

  EXPECT_EQ(registry.NumTenants(), 0u);
  ASSERT_TRUE(add("beta", 1).ok());
  ASSERT_TRUE(add("alpha", 2).ok());
  EXPECT_EQ(add("alpha", 3).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(add("", 4).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry
                .AddTenant("gamma", "t", 1, {7}, nullptr, 0, topts)
                .code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(registry.HasTenant("alpha"));
  EXPECT_FALSE(registry.HasTenant("gamma"));
  EXPECT_EQ(registry.NumTenants(), 2u);
  // Sorted names: stable LIST output.
  EXPECT_EQ(registry.TenantNames(),
            (std::vector<std::string>{"alpha", "beta"}));

  const std::string list = registry.FormatTenantList();
  EXPECT_NE(list.find("alpha"), std::string::npos);
  EXPECT_NE(list.find("beta"), std::string::npos);

  // Get keeps a dropped tenant alive until the reference is released.
  std::shared_ptr<Tenant> held = registry.GetTenant("alpha");
  ASSERT_NE(held, nullptr);
  ASSERT_TRUE(registry.DropTenant("alpha").ok());
  EXPECT_EQ(registry.DropTenant("alpha").code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.GetTenant("alpha"), nullptr);
  EXPECT_NE(held->engine, nullptr);  // still usable
  held.reset();
}

TEST(ModelRegistry, ValidateRegionsEnforcesTenantSchema) {
  const Table table = SmallTable(12);
  ModelRegistry registry;
  TenantOptions topts;
  topts.engine.engine.num_threads = 1;
  auto model = SmallTrainedModel(table, 5);
  const size_t bytes = model->SizeBytes();
  ASSERT_TRUE(registry
                  .AddTenant("t", "t", table.num_rows(),
                             TableDomains(table), std::move(model), bytes,
                             topts)
                  .ok());
  const std::shared_ptr<Tenant> tenant = registry.GetTenant("t");
  ASSERT_NE(tenant, nullptr);

  std::vector<ValueSet> good;
  for (size_t d : TableDomains(table)) good.push_back(ValueSet::All(d));
  EXPECT_TRUE(tenant->ValidateRegions(good).ok());

  std::vector<ValueSet> short_query(good.begin(), good.end() - 1);
  EXPECT_EQ(tenant->ValidateRegions(short_query).code(),
            StatusCode::kInvalidArgument);

  std::vector<ValueSet> wrong_domain = good;
  wrong_domain[0] = ValueSet::All(99);
  EXPECT_EQ(tenant->ValidateRegions(wrong_domain).code(),
            StatusCode::kInvalidArgument);
}

// ---- Live server over a loopback socket ---------------------------------

/// Builds a two-tenant server: "alpha" throttled (bounded admission, no
/// cache, single-request batches) and "beta" standard but cache-free so
/// repeated runs do identical work. References are computed before the
/// models move into the registry.
class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alpha_table_ = SmallTable(101);
    beta_table_ = SmallTable(202);
    auto alpha_model = SmallTrainedModel(alpha_table_, 1);
    auto beta_model = SmallTrainedModel(beta_table_, 2);

    ncfg_.num_samples = 64;
    ncfg_.enumeration_threshold = 0;  // every request is a sampled walk

    beta_queries_ = SmallWorkload(beta_table_, 12, 77);
    flood_queries_ = SmallWorkload(alpha_table_, 48, 78);
    {
      ScopedSerialRegion serial;
      NaruEstimator beta_est(beta_model.get(), ncfg_,
                             beta_model->SizeBytes());
      for (const Query& q : beta_queries_) {
        beta_ref_.push_back(beta_est.EstimateSelectivity(q));
      }
    }

    TenantOptions alpha_opts;
    alpha_opts.estimator = ncfg_;
    alpha_opts.engine.max_batch_size = 1;
    alpha_opts.engine.max_wait_ms = 0.0;
    alpha_opts.engine.max_pending = 4;
    alpha_opts.engine.engine.num_threads = 1;
    alpha_opts.engine.engine.cache_budget_bytes = 0;
    const size_t alpha_bytes = alpha_model->SizeBytes();
    ASSERT_TRUE(registry_
                    .AddTenant("alpha", "alpha_t", alpha_table_.num_rows(),
                               TableDomains(alpha_table_),
                               std::move(alpha_model), alpha_bytes,
                               alpha_opts)
                    .ok());

    TenantOptions beta_opts;
    beta_opts.estimator = ncfg_;
    beta_opts.engine.max_batch_size = 8;
    beta_opts.engine.max_wait_ms = 0.5;
    beta_opts.engine.engine.num_threads = 1;
    beta_opts.engine.engine.cache_budget_bytes = 0;
    const size_t beta_bytes = beta_model->SizeBytes();
    ASSERT_TRUE(registry_
                    .AddTenant("beta", "beta_t", beta_table_.num_rows(),
                               TableDomains(beta_table_),
                               std::move(beta_model), beta_bytes,
                               beta_opts)
                    .ok());

    ASSERT_TRUE(server_.Start().ok());
    ASSERT_NE(server_.port(), 0);
  }

  void TearDown() override { server_.Shutdown(); }

  Status ConnectClient(NetClient* client) {
    Status st = client->Connect("127.0.0.1", server_.port());
    if (st.ok()) st = client->SetRecvTimeoutMs(20000);
    return st;
  }

  WireEstimateRequest MakeWire(const std::string& tenant, const Query& q,
                               uint64_t id) {
    WireEstimateRequest wire;
    wire.request_id = id;
    wire.tenant = tenant;
    wire.regions = q.regions();
    return wire;
  }

  /// Pipelines `queries` on one connection and returns the responses
  /// keyed by request_id (ids are 1-based indices).
  std::map<uint64_t, WireEstimateResponse> RunTrace(
      NetClient* client, const std::string& tenant,
      const std::vector<Query>& queries) {
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(
          client->SendEstimate(MakeWire(tenant, queries[i], i + 1)).ok());
    }
    std::map<uint64_t, WireEstimateResponse> got;
    while (got.size() < queries.size()) {
      Frame frame;
      const Status st = client->ReadFrame(&frame);
      EXPECT_TRUE(st.ok()) << st.ToString();
      if (!st.ok()) break;
      EXPECT_EQ(frame.type, FrameType::kEstimateResponse);
      got[frame.response.request_id] = frame.response;
    }
    return got;
  }

  Table alpha_table_{"alpha_t"};
  Table beta_table_{"beta_t"};
  NaruEstimatorConfig ncfg_;
  std::vector<Query> beta_queries_;
  std::vector<Query> flood_queries_;
  std::vector<double> beta_ref_;
  ModelRegistry registry_;
  NetServer server_{&registry_};
};

TEST_F(NetServerTest, EstimatesCrossTheWireBitExactly) {
  NetClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  const auto got = RunTrace(&client, "beta", beta_queries_);
  ASSERT_EQ(got.size(), beta_queries_.size());
  for (size_t i = 0; i < beta_queries_.size(); ++i) {
    const auto it = got.find(i + 1);
    ASSERT_NE(it, got.end()) << "missing response for request " << i + 1;
    EXPECT_EQ(it->second.status_code, StatusCode::kOk);
    EXPECT_EQ(Bits(it->second.estimate), Bits(beta_ref_[i]))
        << "estimate " << i << " diverged across the wire";
  }
}

TEST_F(NetServerTest, UnknownTenantAndSchemaMismatchAreTypedResponses) {
  NetClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  WireEstimateResponse resp;
  ASSERT_TRUE(
      client
          .CallEstimate(MakeWire("no-such-tenant", beta_queries_[0], 1),
                        &resp)
          .ok());
  EXPECT_EQ(resp.status_code, StatusCode::kNotFound);
  EXPECT_EQ(resp.request_id, 1u);

  // Right tenant name, wrong schema (beta's query against alpha).
  std::vector<ValueSet> wrong{ValueSet::All(3)};
  WireEstimateRequest bad;
  bad.request_id = 2;
  bad.tenant = "alpha";
  bad.regions = wrong;
  ASSERT_TRUE(client.CallEstimate(bad, &resp).ok());
  EXPECT_EQ(resp.status_code, StatusCode::kInvalidArgument);

  // The connection survived both rejections.
  ASSERT_TRUE(
      client.CallEstimate(MakeWire("beta", beta_queries_[0], 3), &resp)
          .ok());
  EXPECT_EQ(resp.status_code, StatusCode::kOk);
  EXPECT_EQ(Bits(resp.estimate), Bits(beta_ref_[0]));

  EXPECT_GE(server_.stats().rejected_requests, 2u);
}

TEST_F(NetServerTest, MalformedFramesGetTypedErrorsAndStreamSurvives) {
  NetClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  // Bad version: per-frame error, connection keeps serving.
  ASSERT_TRUE(client.SendRaw(WrapFrame(std::string("\x07\x01", 2))).ok());
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame).ok());
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_FALSE(frame.error.fatal);
  EXPECT_EQ(frame.error.status_code, StatusCode::kInvalidArgument);

  // Unknown frame type.
  ASSERT_TRUE(client.SendRaw(WrapFrame(std::string("\x01\x63", 2))).ok());
  ASSERT_TRUE(client.ReadFrame(&frame).ok());
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_FALSE(frame.error.fatal);

  // Truncated estimate-request body.
  ASSERT_TRUE(client.SendRaw(WrapFrame(std::string("\x01\x01", 2))).ok());
  ASSERT_TRUE(client.ReadFrame(&frame).ok());
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_FALSE(frame.error.fatal);

  // The stream is still perfectly usable for real requests.
  WireEstimateResponse resp;
  ASSERT_TRUE(
      client.CallEstimate(MakeWire("beta", beta_queries_[1], 10), &resp)
          .ok());
  EXPECT_EQ(Bits(resp.estimate), Bits(beta_ref_[1]));

  EXPECT_GE(server_.stats().protocol_errors, 3u);
  EXPECT_EQ(server_.stats().poisoned_streams, 0u);
}

TEST_F(NetServerTest, PoisonedPrefixClosesStreamButNotTheServer) {
  NetClient poisoner;
  ASSERT_TRUE(ConnectClient(&poisoner).ok());

  // An oversized length prefix cannot be resynchronized: the server must
  // reply with a FATAL typed error and close this connection.
  std::string huge_prefix;
  AppendU32(0xffffffffu, &huge_prefix);
  ASSERT_TRUE(poisoner.SendRaw(huge_prefix).ok());
  Frame frame;
  ASSERT_TRUE(poisoner.ReadFrame(&frame).ok());
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_TRUE(frame.error.fatal);
  // Next read hits EOF: the server closed the poisoned stream.
  Status eof = poisoner.ReadFrame(&frame);
  EXPECT_FALSE(eof.ok());

  // A fresh connection is served normally: the poison was per-stream.
  NetClient fresh;
  ASSERT_TRUE(ConnectClient(&fresh).ok());
  WireEstimateResponse resp;
  ASSERT_TRUE(
      fresh.CallEstimate(MakeWire("beta", beta_queries_[2], 1), &resp)
          .ok());
  EXPECT_EQ(Bits(resp.estimate), Bits(beta_ref_[2]));

  EXPECT_GE(server_.stats().poisoned_streams, 1u);
}

TEST_F(NetServerTest, ControlVerbsListAndStats) {
  NetClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  WireControlRequest list;
  list.request_id = 1;
  list.verb = ControlVerb::kList;
  WireControlResponse resp;
  ASSERT_TRUE(client.CallControl(list, &resp).ok());
  EXPECT_EQ(resp.status_code, StatusCode::kOk);
  const size_t alpha_at = resp.text.find("alpha");
  const size_t beta_at = resp.text.find("beta");
  ASSERT_NE(alpha_at, std::string::npos);
  ASSERT_NE(beta_at, std::string::npos);
  EXPECT_LT(alpha_at, beta_at);  // sorted catalog order

  WireControlRequest stats;
  stats.request_id = 2;
  stats.verb = ControlVerb::kStats;
  stats.tenant = "beta";
  ASSERT_TRUE(client.CallControl(stats, &resp).ok());
  EXPECT_EQ(resp.status_code, StatusCode::kOk);
  EXPECT_NE(resp.text.find("beta"), std::string::npos);

  stats.request_id = 3;
  stats.tenant = "no-such-tenant";
  ASSERT_TRUE(client.CallControl(stats, &resp).ok());
  EXPECT_EQ(resp.status_code, StatusCode::kNotFound);
}

// Requests whose budget or deadline is out of range get a typed answer
// over the wire: an oversized sample budget is INVALID_ARGUMENT (no walk),
// an unrepresentably loose deadline is served as no deadline.
TEST_F(NetServerTest, OutOfRangeBudgetsAndDeadlinesAreTyped) {
  NetClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  WireEstimateResponse resp;
  WireEstimateRequest wire = MakeWire("beta", beta_queries_[0], 1);
  wire.num_samples = std::numeric_limits<uint64_t>::max();
  ASSERT_TRUE(client.CallEstimate(wire, &resp).ok());
  EXPECT_EQ(resp.status_code, StatusCode::kInvalidArgument);
  EXPECT_TRUE(std::isnan(resp.estimate));

  for (const double ms : {1e13, std::numeric_limits<double>::infinity()}) {
    wire = MakeWire("beta", beta_queries_[0], 2);
    wire.deadline_ms = ms;
    ASSERT_TRUE(client.CallEstimate(wire, &resp).ok());
    EXPECT_EQ(resp.status_code, StatusCode::kOk) << "deadline_ms " << ms;
    EXPECT_EQ(Bits(resp.estimate), Bits(beta_ref_[0]));
  }
}

// perfbench (ParseStats in perfbench/loadgen.cc) reads the STATS reply
// with exactly these sscanf formats and exits when one stops matching, so
// the reply's shape is a contract; its values are the tenant's own
// engine()->stats() and async_stats().
TEST_F(NetServerTest, StatsReplyKeepsTheShapePerfbenchParses) {
  TenantOptions opts;
  opts.estimator = ncfg_;
  opts.engine.engine.num_threads = 1;  // default cache budget: memo hits
  auto model = SmallTrainedModel(beta_table_, 3);
  const size_t model_bytes = model->SizeBytes();
  ASSERT_TRUE(registry_
                  .AddTenant("gamma", "beta_t", beta_table_.num_rows(),
                             TableDomains(beta_table_), std::move(model),
                             model_bytes, opts)
                  .ok());
  NetClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  ASSERT_EQ(RunTrace(&client, "gamma", beta_queries_).size(),
            beta_queries_.size());
  ASSERT_EQ(RunTrace(&client, "gamma", beta_queries_).size(),
            beta_queries_.size());
  const std::shared_ptr<Tenant> gamma = registry_.GetTenant("gamma");
  ASSERT_NE(gamma, nullptr);
  gamma->engine->Drain();  // every counter settled before the snapshot

  WireControlRequest req;
  req.request_id = 1000;
  req.verb = ControlVerb::kStats;
  req.tenant = "gamma";
  WireControlResponse resp;
  ASSERT_TRUE(client.CallControl(req, &resp).ok());
  ASSERT_EQ(resp.status_code, StatusCode::kOk);
  const EngineStats es = gamma->engine->engine()->stats();
  const AsyncEngineStats as = gamma->engine->async_stats();
  ASSERT_GT(es.memo_hits, 0u);
  ASSERT_GT(es.planned_queries, 0u);

  size_t submitted = 0, completed = 0, batches = 0, largest = 0, joined = 0,
         admission_shed = 0, peak = 0;
  size_t size_flushes = 0, deadline_flushes = 0, drain_flushes = 0,
         reorders = 0;
  size_t queries = 0, sampled = 0, enumerated = 0, exact = 0,
         shed_deadline = 0, midwalk = 0, shed_adm = 0;
  size_t memo_hits = 0, memo_misses = 0, evictions = 0, entries = 0;
  size_t planned = 0, trees = 0, plan_batches = 0, shared_cols = 0,
         walk_cols = 0, workspaces = 0;
  double kb = 0, avg = 0, ratio = 0;
  int found = 0;
  std::istringstream in(resp.text);
  std::string line;
  while (std::getline(in, line)) {
    const char* l = line.c_str();
    if (std::sscanf(l,
                    "# async: %zu submitted, %zu completed, %zu batches "
                    "(largest %zu), %zu joined twins, %zu admission-shed, "
                    "peak pending %zu",
                    &submitted, &completed, &batches, &largest, &joined,
                    &admission_shed, &peak) == 7) {
      found |= 1;
      // The flush reasons follow where perfbench's format stops reading.
      EXPECT_EQ(std::sscanf(l,
                            "# async: %zu submitted, %zu completed, %zu "
                            "batches (largest %zu), %zu joined twins, %zu "
                            "admission-shed, peak pending %zu; %zu size / "
                            "%zu deadline / %zu drain flushes, %zu deadline "
                            "reorders",
                            &submitted, &completed, &batches, &largest,
                            &joined, &admission_shed, &peak, &size_flushes,
                            &deadline_flushes, &drain_flushes, &reorders),
                11)
          << line;
    } else if (std::sscanf(l,
                           "# engine: %zu queries (%zu sampled, %zu "
                           "enumerated, %zu exact shortcuts, %zu shed on "
                           "deadline, %zu abandoned mid-walk, %zu shed at "
                           "admission)",
                           &queries, &sampled, &enumerated, &exact,
                           &shed_deadline, &midwalk, &shed_adm) == 7) {
      found |= 2;
    } else if (std::sscanf(l,
                           "# caches: memo %zu hits / %zu misses / %zu "
                           "evictions (%zu entries, %lf KB)",
                           &memo_hits, &memo_misses, &evictions, &entries,
                           &kb) == 5) {
      found |= 4;
    } else if (std::sscanf(l,
                           "# plans: %zu queries in %zu trees over %zu "
                           "batches, avg tree %lf, prefix-share ratio %lf "
                           "(%zu of %zu column walks shared)",
                           &planned, &trees, &plan_batches, &avg, &ratio,
                           &shared_cols, &walk_cols) == 7) {
      found |= 8;
    } else if (std::sscanf(l, "# workspaces created: %zu", &workspaces) ==
               1) {
      found |= 16;
    }
  }
  ASSERT_EQ(found, 31) << resp.text;

  EXPECT_EQ(submitted, as.submitted);
  EXPECT_EQ(completed, as.completed);
  EXPECT_EQ(batches, as.batches);
  EXPECT_EQ(largest, as.largest_batch);
  EXPECT_EQ(joined, as.joined_duplicates);
  EXPECT_EQ(admission_shed, as.shed_admission);
  EXPECT_EQ(peak, as.max_pending_seen);
  EXPECT_EQ(size_flushes, as.size_flushes);
  EXPECT_EQ(deadline_flushes, as.deadline_flushes);
  EXPECT_EQ(drain_flushes, as.drain_flushes);
  EXPECT_EQ(reorders, as.deadline_reorders);
  EXPECT_EQ(size_flushes + deadline_flushes + drain_flushes, batches);

  EXPECT_EQ(queries, es.queries);
  EXPECT_EQ(sampled, es.sampled);
  EXPECT_EQ(enumerated, es.enumerated);
  EXPECT_EQ(exact, es.exact_shortcuts);
  EXPECT_EQ(shed_deadline, es.shed_deadline);
  EXPECT_EQ(midwalk, es.shed_midwalk);
  EXPECT_EQ(shed_adm, as.shed_admission);

  EXPECT_EQ(memo_hits, es.memo_hits);
  EXPECT_EQ(memo_misses, es.memo_misses);
  EXPECT_EQ(evictions, es.memo_evictions);
  EXPECT_EQ(entries, es.memo_entries);
  EXPECT_NEAR(kb, es.memo_bytes / 1024.0, 0.05);

  EXPECT_EQ(planned, es.planned_queries);
  EXPECT_EQ(trees, es.plan_trees);
  EXPECT_EQ(plan_batches, es.plan_batches);
  EXPECT_EQ(shared_cols, es.plan_shared_cols);
  EXPECT_EQ(walk_cols, es.plan_walk_cols);
  EXPECT_EQ(workspaces, es.workspaces_created);
}

TEST_F(NetServerTest, GracefulDrainDeliversEveryInFlightResponse) {
  NetClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  // Pipeline K estimates, then a control frame as an in-order read
  // barrier: once its response arrives the server has READ (and
  // submitted) all K requests — some may still be mid-walk.
  const size_t k = beta_queries_.size();
  for (size_t i = 0; i < k; ++i) {
    ASSERT_TRUE(
        client.SendEstimate(MakeWire("beta", beta_queries_[i], i + 1))
            .ok());
  }
  WireControlRequest barrier;
  barrier.request_id = 1000;
  barrier.verb = ControlVerb::kList;
  ASSERT_TRUE(client.SendControl(barrier).ok());

  std::thread shutdown;
  size_t estimates_seen = 0;
  bool barrier_seen = false;
  for (;;) {
    Frame frame;
    const Status st = client.ReadFrame(&frame);
    if (!st.ok()) break;  // EOF after the drain flushed everything
    if (frame.type == FrameType::kControlResponse) {
      ASSERT_EQ(frame.control_response.request_id, 1000u);
      barrier_seen = true;
      // Everything is in flight server-side: drain from another thread
      // while this one keeps reading.
      shutdown = std::thread([this] { server_.Shutdown(); });
    } else {
      ASSERT_EQ(frame.type, FrameType::kEstimateResponse);
      EXPECT_EQ(frame.response.status_code, StatusCode::kOk);
      const uint64_t id = frame.response.request_id;
      ASSERT_GE(id, 1u);
      ASSERT_LE(id, k);
      EXPECT_EQ(Bits(frame.response.estimate), Bits(beta_ref_[id - 1]));
      ++estimates_seen;
    }
  }
  if (shutdown.joinable()) shutdown.join();

  EXPECT_TRUE(barrier_seen);
  // The drain contract: every request the server read resolves and its
  // response reaches a client that keeps reading — none dropped.
  EXPECT_EQ(estimates_seen, k);
  const NetServerStats stats = server_.stats();
  EXPECT_EQ(stats.requests_submitted, k);
  EXPECT_EQ(stats.responses_sent, k);
  EXPECT_EQ(stats.orphaned_responses, 0u);
}

// Concurrency regression (sanitizer matrix): Shutdown() racing in-flight
// submissions from several client threads, with NO ordering barrier — the
// shutdown lands while clients are mid-send, which is exactly where a race
// between the I/O thread, the tenant dispatchers' delivery callbacks, and
// the shutdown path would surface under TSan. The invariant is
// conservation, not a fixed count: every request the server READ resolves
// to a response that is either flushed to a still-reading client or
// counted orphaned; clients see a clean EOF, never a hang or a crash.
TEST_F(NetServerTest, ShutdownRacesInFlightSubmits) {
  constexpr size_t kClients = 3;
  std::atomic<size_t> pipelined{0};  // clients whose burst is fully sent
  std::atomic<size_t> responses{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &pipelined, &responses] {
      NetClient client;
      if (!ConnectClient(&client).ok()) {
        // Shutdown beat the connect — legal in this race, nothing to do.
        pipelined.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      for (size_t i = 0; i < beta_queries_.size(); ++i) {
        // A send failing mid-burst is the race working as intended (the
        // server stopped reading and closed); keep going to the read side.
        if (!client
                 .SendEstimate(
                     MakeWire("beta", beta_queries_[i], c * 100 + i + 1))
                 .ok()) {
          break;
        }
      }
      pipelined.fetch_add(1, std::memory_order_relaxed);
      for (;;) {
        Frame frame;
        if (!client.ReadFrame(&frame).ok()) break;  // EOF after the drain
        if (frame.type == FrameType::kEstimateResponse) {
          EXPECT_EQ(frame.response.status_code, StatusCode::kOk);
          const uint64_t id = frame.response.request_id;
          EXPECT_EQ(Bits(frame.response.estimate),
                    Bits(beta_ref_[(id % 100) - 1]));
          responses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Fire the shutdown as soon as ONE client has its whole burst in the
  // socket: requests are then guaranteed in flight — parsed, queued, or
  // mid-walk — while other clients may still be sending.
  while (pipelined.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  std::thread shutdown([this] { server_.Shutdown(); });
  for (auto& t : clients) t.join();
  shutdown.join();

  const NetServerStats stats = server_.stats();
  // Conservation across the race: everything the server read was
  // submitted, resolved, and its response accounted for — delivered to a
  // reader or counted orphaned, never silently dropped.
  EXPECT_EQ(stats.responses_sent + stats.orphaned_responses,
            stats.requests_submitted);
  // Clients read to EOF, so every flushed response reached one of them.
  EXPECT_EQ(responses.load(std::memory_order_relaxed), stats.responses_sent);
}

TEST_F(NetServerTest, FloodedTenantDoesNotPerturbTheOther) {
  // Solo run: beta's trace alone, recording estimates and the engine
  // counters the run cost (beta's cache is off, so a repeat run does
  // byte-identical work).
  std::shared_ptr<Tenant> beta = registry_.GetTenant("beta");
  ASSERT_NE(beta, nullptr);
  const AsyncEngineStats solo_before = beta->engine->async_stats();
  std::map<uint64_t, WireEstimateResponse> solo;
  {
    NetClient client;
    ASSERT_TRUE(ConnectClient(&client).ok());
    solo = RunTrace(&client, "beta", beta_queries_);
  }
  ASSERT_EQ(solo.size(), beta_queries_.size());
  beta->engine->Drain();
  const AsyncEngineStats solo_after = beta->engine->async_stats();
  const size_t solo_submitted = solo_after.submitted - solo_before.submitted;

  // Flooded run: alpha (max_pending=4, single-threaded, batch size 1) is
  // hammered with distinct low-priority queries from one connection while
  // beta replays the same trace on another.
  std::atomic<size_t> alpha_shed{0};
  std::atomic<size_t> alpha_retry_hints{0};
  std::atomic<bool> flood_ok{true};
  std::thread flooder([&] {
    NetClient client;
    if (!ConnectClient(&client).ok()) {
      flood_ok = false;
      return;
    }
    for (size_t i = 0; i < flood_queries_.size(); ++i) {
      WireEstimateRequest wire = MakeWire("alpha", flood_queries_[i], i + 1);
      wire.priority = RequestPriority::kLow;
      if (!client.SendEstimate(wire).ok()) {
        flood_ok = false;
        return;
      }
    }
    for (size_t i = 0; i < flood_queries_.size(); ++i) {
      Frame frame;
      if (!client.ReadFrame(&frame).ok() ||
          frame.type != FrameType::kEstimateResponse) {
        flood_ok = false;
        return;
      }
      if (frame.response.status_code == StatusCode::kResourceExhausted) {
        ++alpha_shed;
        // Satellite contract: every admission shed carries a positive
        // retry hint across the wire.
        if (frame.response.retry_after_ms > 0) ++alpha_retry_hints;
      }
    }
  });

  std::map<uint64_t, WireEstimateResponse> flooded;
  {
    NetClient client;
    ASSERT_TRUE(ConnectClient(&client).ok());
    flooded = RunTrace(&client, "beta", beta_queries_);
  }
  flooder.join();
  ASSERT_TRUE(flood_ok.load());
  beta->engine->Drain();
  const AsyncEngineStats flood_after = beta->engine->async_stats();

  // The flood really saturated alpha...
  EXPECT_GT(alpha_shed.load(), 0u);
  EXPECT_EQ(alpha_retry_hints.load(), alpha_shed.load());

  // ...and beta never noticed: same responses bit for bit,
  ASSERT_EQ(flooded.size(), beta_queries_.size());
  for (size_t i = 0; i < beta_queries_.size(); ++i) {
    const auto& a = solo.at(i + 1);
    const auto& b = flooded.at(i + 1);
    EXPECT_EQ(a.status_code, StatusCode::kOk);
    EXPECT_EQ(b.status_code, StatusCode::kOk);
    EXPECT_EQ(Bits(a.estimate), Bits(b.estimate))
        << "beta estimate " << i << " perturbed by alpha's flood";
    EXPECT_EQ(Bits(b.estimate), Bits(beta_ref_[i]));
  }
  // ...same engine work, zero sheds of any kind in beta's own stack.
  EXPECT_EQ(flood_after.submitted - solo_after.submitted, solo_submitted);
  EXPECT_EQ(flood_after.shed_admission, 0u);
  EXPECT_EQ(flood_after.expired_victims, 0u);
  EXPECT_EQ(beta->engine->engine()->stats().shed_deadline, 0u);
  EXPECT_EQ(beta->engine->engine()->stats().shed_midwalk, 0u);
}

}  // namespace
}  // namespace naru
