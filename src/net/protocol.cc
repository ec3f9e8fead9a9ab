#include "net/protocol.h"

#include <cstring>

#include "util/deadline.h"
#include "util/string_util.h"

namespace naru {

namespace {

// ---- Little-endian primitives ------------------------------------------
// Byte-at-a-time shifts instead of memcpy: the wire format is defined as
// little-endian, not as "whatever the host does".

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI64(int64_t v, std::string* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

void PutF64(double v, std::string* out) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));  // IEEE-754 bit pattern, LE on wire
  PutU64(bits, out);
}

void PutString(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

/// Sequential reader over a frame payload. Every Get* returns false once
/// the payload is exhausted; decoders turn that into one InvalidArgument
/// instead of checking lengths at every site.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *v = r;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *v = r;
    return true;
  }
  bool GetI64(int64_t* v) {
    uint64_t u;
    if (!GetU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool GetI32(int32_t* v) {
    uint32_t u;
    if (!GetU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }
  bool GetF64(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool GetString(std::string* s) {
    uint32_t len;
    if (!GetU32(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    s->assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  /// Every payload byte consumed? Trailing garbage is a malformation —
  /// it would silently desynchronize a decoder trusting field order.
  bool Exhausted() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// ---- Region / query codec ----------------------------------------------

void PutRegions(const std::vector<ValueSet>& regions, std::string* out) {
  PutU32(static_cast<uint32_t>(regions.size()), out);
  for (const ValueSet& region : regions) {
    PutU8(static_cast<uint8_t>(region.kind()), out);
    PutU64(region.domain(), out);
    switch (region.kind()) {
      case ValueSet::Kind::kAll:
        break;
      case ValueSet::Kind::kInterval:
        PutI64(region.lo(), out);
        PutI64(region.hi(), out);
        break;
      case ValueSet::Kind::kSet:
        PutU32(static_cast<uint32_t>(region.codes().size()), out);
        for (int32_t c : region.codes()) PutI32(c, out);
        break;
    }
  }
}

bool GetRegions(Reader* in, std::vector<ValueSet>* regions) {
  uint32_t count;
  if (!in->GetU32(&count)) return false;
  // A column count the remaining bytes cannot possibly carry (>= 9 bytes
  // per region) is rejected before reserving anything.
  if (count > in->remaining() / 9 + 1) return false;
  regions->clear();
  regions->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t kind;
    uint64_t domain;
    if (!in->GetU8(&kind) || !in->GetU64(&domain)) return false;
    switch (static_cast<ValueSet::Kind>(kind)) {
      case ValueSet::Kind::kAll:
        regions->push_back(ValueSet::All(domain));
        break;
      case ValueSet::Kind::kInterval: {
        int64_t lo, hi;
        if (!in->GetI64(&lo) || !in->GetI64(&hi)) return false;
        regions->push_back(ValueSet::Interval(domain, lo, hi));
        break;
      }
      case ValueSet::Kind::kSet: {
        uint32_t n;
        if (!in->GetU32(&n)) return false;
        if (static_cast<size_t>(n) * 4 > in->remaining()) return false;
        std::vector<int32_t> codes(n);
        for (uint32_t k = 0; k < n; ++k) {
          if (!in->GetI32(&codes[k])) return false;
        }
        regions->push_back(ValueSet::Set(domain, std::move(codes)));
        break;
      }
      default:
        return false;  // unknown region kind
    }
  }
  return true;
}

// ---- Frame assembly -----------------------------------------------------

/// Starts a frame: length placeholder + version + type. FinishFrame
/// backpatches the length.
size_t BeginFrame(FrameType type, std::string* out) {
  const size_t prefix_at = out->size();
  PutU32(0, out);  // patched by FinishFrame
  PutU8(kProtocolVersion, out);
  PutU8(static_cast<uint8_t>(type), out);
  return prefix_at;
}

void FinishFrame(size_t prefix_at, std::string* out) {
  const uint32_t payload =
      static_cast<uint32_t>(out->size() - prefix_at - kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    (*out)[prefix_at + i] = static_cast<char>((payload >> (8 * i)) & 0xff);
  }
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(StrFormat("malformed frame: %s", what));
}

}  // namespace

void EncodeEstimateRequest(const WireEstimateRequest& msg, std::string* out) {
  const size_t at = BeginFrame(FrameType::kEstimateRequest, out);
  PutU64(msg.request_id, out);
  PutString(msg.tenant, out);
  PutRegions(msg.regions, out);
  PutU64(msg.num_samples, out);
  PutF64(msg.deadline_ms, out);
  PutU8(static_cast<uint8_t>(msg.priority), out);
  PutU8(static_cast<uint8_t>(msg.cache_policy), out);
  FinishFrame(at, out);
}

void EncodeEstimateResponse(const WireEstimateResponse& msg,
                            std::string* out) {
  const size_t at = BeginFrame(FrameType::kEstimateResponse, out);
  PutU64(msg.request_id, out);
  PutU8(static_cast<uint8_t>(msg.status_code), out);
  PutString(msg.status_message, out);
  PutF64(msg.estimate, out);
  PutF64(msg.std_error, out);
  PutU8(static_cast<uint8_t>(msg.provenance), out);
  PutU64(msg.samples_used, out);
  PutF64(msg.queue_ms, out);
  PutF64(msg.compute_ms, out);
  PutF64(msg.retry_after_ms, out);
  FinishFrame(at, out);
}

void EncodeControlRequest(const WireControlRequest& msg, std::string* out) {
  const size_t at = BeginFrame(FrameType::kControlRequest, out);
  PutU64(msg.request_id, out);
  PutU8(static_cast<uint8_t>(msg.verb), out);
  PutString(msg.tenant, out);
  FinishFrame(at, out);
}

void EncodeControlResponse(const WireControlResponse& msg, std::string* out) {
  const size_t at = BeginFrame(FrameType::kControlResponse, out);
  PutU64(msg.request_id, out);
  PutU8(static_cast<uint8_t>(msg.status_code), out);
  PutString(msg.status_message, out);
  PutString(msg.text, out);
  FinishFrame(at, out);
}

void EncodeError(const WireError& msg, std::string* out) {
  const size_t at = BeginFrame(FrameType::kError, out);
  PutU64(msg.request_id, out);
  PutU8(static_cast<uint8_t>(msg.status_code), out);
  PutString(msg.message, out);
  PutU8(msg.fatal ? 1 : 0, out);
  FinishFrame(at, out);
}

size_t FrameSizeBytes(std::string_view buf, size_t max_payload,
                      Status* error) {
  *error = Status::OK();
  if (buf.size() < kFrameHeaderBytes) return 0;
  uint32_t payload = 0;
  for (int i = 0; i < 4; ++i) {
    payload |= static_cast<uint32_t>(static_cast<uint8_t>(buf[i])) << (8 * i);
  }
  if (payload > max_payload) {
    *error = Status::InvalidArgument(
        StrFormat("frame payload of %u bytes exceeds the %zu-byte limit; "
                  "stream cannot be resynchronized",
                  payload, max_payload));
    return 0;
  }
  if (payload < 2) {  // version + type at minimum
    *error = Status::InvalidArgument(StrFormat(
        "frame payload of %u bytes cannot carry a version and type", payload));
    return 0;
  }
  if (buf.size() < kFrameHeaderBytes + payload) return 0;  // need more
  return kFrameHeaderBytes + payload;
}

Status DecodeFrame(std::string_view payload, Frame* out) {
  Reader in(payload);
  uint8_t version, type;
  if (!in.GetU8(&version) || !in.GetU8(&type)) {
    return Malformed("payload shorter than version + type");
  }
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported protocol version %u (this build speaks %u)",
                  version, kProtocolVersion));
  }
  switch (static_cast<FrameType>(type)) {
    case FrameType::kEstimateRequest: {
      out->type = FrameType::kEstimateRequest;
      WireEstimateRequest* msg = &out->request;
      uint8_t priority, policy;
      if (!in.GetU64(&msg->request_id) || !in.GetString(&msg->tenant) ||
          !GetRegions(&in, &msg->regions) || !in.GetU64(&msg->num_samples) ||
          !in.GetF64(&msg->deadline_ms) || !in.GetU8(&priority) ||
          !in.GetU8(&policy)) {
        return Malformed("truncated estimate-request body");
      }
      if (priority > static_cast<uint8_t>(RequestPriority::kHigh)) {
        return Malformed("priority out of range");
      }
      if (policy > static_cast<uint8_t>(CachePolicy::kBypass)) {
        return Malformed("cache policy out of range");
      }
      msg->priority = static_cast<RequestPriority>(priority);
      msg->cache_policy = static_cast<CachePolicy>(policy);
      break;
    }
    case FrameType::kEstimateResponse: {
      out->type = FrameType::kEstimateResponse;
      WireEstimateResponse* msg = &out->response;
      uint8_t code, provenance;
      if (!in.GetU64(&msg->request_id) || !in.GetU8(&code) ||
          !in.GetString(&msg->status_message) || !in.GetF64(&msg->estimate) ||
          !in.GetF64(&msg->std_error) || !in.GetU8(&provenance) ||
          !in.GetU64(&msg->samples_used) || !in.GetF64(&msg->queue_ms) ||
          !in.GetF64(&msg->compute_ms) || !in.GetF64(&msg->retry_after_ms)) {
        return Malformed("truncated estimate-response body");
      }
      if (code > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
        return Malformed("status code out of range");
      }
      // Code 4 is retired (request.h) and never produced.
      if (provenance > static_cast<uint8_t>(ResultProvenance::kShed) ||
          provenance == 4) {
        return Malformed("provenance out of range");
      }
      msg->status_code = static_cast<StatusCode>(code);
      msg->provenance = static_cast<ResultProvenance>(provenance);
      break;
    }
    case FrameType::kControlRequest: {
      out->type = FrameType::kControlRequest;
      WireControlRequest* msg = &out->control;
      uint8_t verb;
      if (!in.GetU64(&msg->request_id) || !in.GetU8(&verb) ||
          !in.GetString(&msg->tenant)) {
        return Malformed("truncated control-request body");
      }
      if (verb != static_cast<uint8_t>(ControlVerb::kStats) &&
          verb != static_cast<uint8_t>(ControlVerb::kList)) {
        return Malformed("unknown control verb");
      }
      msg->verb = static_cast<ControlVerb>(verb);
      break;
    }
    case FrameType::kControlResponse: {
      out->type = FrameType::kControlResponse;
      WireControlResponse* msg = &out->control_response;
      uint8_t code;
      if (!in.GetU64(&msg->request_id) || !in.GetU8(&code) ||
          !in.GetString(&msg->status_message) || !in.GetString(&msg->text)) {
        return Malformed("truncated control-response body");
      }
      if (code > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
        return Malformed("status code out of range");
      }
      msg->status_code = static_cast<StatusCode>(code);
      break;
    }
    case FrameType::kError: {
      out->type = FrameType::kError;
      WireError* msg = &out->error;
      uint8_t code, fatal;
      if (!in.GetU64(&msg->request_id) || !in.GetU8(&code) ||
          !in.GetString(&msg->message) || !in.GetU8(&fatal)) {
        return Malformed("truncated error body");
      }
      if (code > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
        return Malformed("status code out of range");
      }
      msg->status_code = static_cast<StatusCode>(code);
      msg->fatal = fatal != 0;
      break;
    }
    default:
      return Status::InvalidArgument(
          StrFormat("unknown frame type %u", type));
  }
  if (!in.Exhausted()) return Malformed("trailing bytes after body");
  return Status::OK();
}

EstimateRequest ToEstimateRequest(const WireEstimateRequest& wire,
                                  std::chrono::steady_clock::time_point now) {
  EstimateRequest request{Query(wire.regions)};
  request.options.num_samples = wire.num_samples;
  request.options.priority = wire.priority;
  request.options.cache_policy = wire.cache_policy;
  // NaN and negative values mean no deadline; so does one too far out
  // for the clock (DeadlineAfterMs).
  if (wire.deadline_ms >= 0) {
    request.options.deadline = DeadlineAfterMs(now, wire.deadline_ms);
  }
  return request;
}

WireEstimateResponse ToWireResponse(uint64_t id, const EstimateResult& res) {
  WireEstimateResponse wire;
  wire.request_id = id;
  wire.status_code = res.status.code();
  wire.status_message = res.status.message();
  wire.estimate = res.estimate;
  wire.std_error = res.std_error;
  wire.provenance = res.provenance;
  wire.samples_used = res.samples_used;
  wire.queue_ms = res.queue_ms;
  wire.compute_ms = res.compute_ms;
  wire.retry_after_ms = res.retry_after_ms;
  return wire;
}

EstimateResult FromWireResponse(const WireEstimateResponse& wire) {
  EstimateResult res;
  res.status = wire.status_code == StatusCode::kOk
                   ? Status::OK()
                   : Status(wire.status_code, wire.status_message);
  res.estimate = wire.estimate;
  res.std_error = wire.std_error;
  res.provenance = wire.provenance;
  res.samples_used = wire.samples_used;
  res.queue_ms = wire.queue_ms;
  res.compute_ms = wire.compute_ms;
  res.retry_after_ms = wire.retry_after_ms;
  return res;
}

}  // namespace naru
