#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/string_util.h"

namespace naru {

namespace {

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

}  // namespace

Status ParseHostPort(std::string_view spec, std::string* host, uint16_t* port,
                     bool listen) {
  if (spec.empty()) {
    return Status::InvalidArgument("empty host:port");
  }
  std::string_view host_part = "127.0.0.1";
  std::string_view port_part = spec;
  const size_t colon = spec.rfind(':');
  if (colon != std::string_view::npos) {
    if (colon > 0) host_part = spec.substr(0, colon);
    port_part = spec.substr(colon + 1);
  }
  if (port_part.empty()) {
    return Status::InvalidArgument(
        StrFormat("missing port in '%.*s'", static_cast<int>(spec.size()),
                  spec.data()));
  }
  long value = 0;
  for (char c : port_part) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(
          StrFormat("bad port in '%.*s'", static_cast<int>(spec.size()),
                    spec.data()));
    }
    value = value * 10 + (c - '0');
    if (value > 65535) {
      return Status::InvalidArgument(
          StrFormat("port out of range in '%.*s'",
                    static_cast<int>(spec.size()), spec.data()));
    }
  }
  if (value == 0 && !listen) {
    return Status::InvalidArgument("port must be nonzero");
  }
  *host = std::string(host_part);
  *port = static_cast<uint16_t>(value);
  return Status::OK();
}

NetClient::~NetClient() { Close(); }

Status NetClient::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Errno("socket");
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument(
        StrFormat("cannot parse host '%s' (IPv4 literal expected)",
                  host.c_str()));
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st = Errno("connect");
    Close();
    return st;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

Status NetClient::SetRecvTimeoutMs(int timeout_ms) {
  if (fd_ < 0) return Status::IOError("not connected");
  timeval tv = {};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::OK();
}

void NetClient::FinishWrites() {
  if (fd_ >= 0) shutdown(fd_, SHUT_WR);
}

void NetClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

Status NetClient::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return Status::IOError("not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status NetClient::SendEstimate(const WireEstimateRequest& request) {
  std::string bytes;
  EncodeEstimateRequest(request, &bytes);
  return SendRaw(bytes);
}

Status NetClient::SendControl(const WireControlRequest& request) {
  std::string bytes;
  EncodeControlRequest(request, &bytes);
  return SendRaw(bytes);
}

Status NetClient::ReadFrame(Frame* out) {
  if (fd_ < 0) return Status::IOError("not connected");
  char buf[64 * 1024];
  for (;;) {
    Status prefix_error;
    const size_t size =
        FrameSizeBytes(inbuf_, kMaxFramePayloadBytes, &prefix_error);
    if (!prefix_error.ok()) return prefix_error;
    if (size != 0) {
      const Status st = DecodeFrame(
          std::string_view(inbuf_).substr(kFrameHeaderBytes,
                                          size - kFrameHeaderBytes),
          out);
      inbuf_.erase(0, size);
      return st;
    }
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      inbuf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return Status::IOError("connection closed by server");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IOError("timed out waiting for a frame");
    }
    return Errno("recv");
  }
}

namespace {

/// Shared shape of the two Call* wrappers: read until the wanted frame
/// type echoes `request_id`, translating kError frames into a Status.
Status AwaitFrame(NetClient* client, FrameType want, uint64_t request_id,
                  Frame* out) {
  for (;;) {
    Status st = client->ReadFrame(out);
    if (!st.ok()) return st;
    if (out->type == FrameType::kError) {
      return Status(out->error.status_code,
                    StrFormat("server error%s: %s",
                              out->error.fatal ? " (fatal)" : "",
                              out->error.message.c_str()));
    }
    if (out->type != want) {
      return Status::Internal(StrFormat(
          "unexpected frame type %u while awaiting %u",
          static_cast<unsigned>(out->type), static_cast<unsigned>(want)));
    }
    const uint64_t got = want == FrameType::kEstimateResponse
                             ? out->response.request_id
                             : out->control_response.request_id;
    if (got == request_id) return Status::OK();
    // A response for a different id with one request outstanding means
    // the caller mixed Call* with unmatched pipelined sends.
    return Status::Internal(
        StrFormat("response for request %llu while awaiting %llu",
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(request_id)));
  }
}

}  // namespace

Status NetClient::CallEstimate(const WireEstimateRequest& request,
                               WireEstimateResponse* response) {
  Status st = SendEstimate(request);
  if (!st.ok()) return st;
  Frame frame;
  st = AwaitFrame(this, FrameType::kEstimateResponse, request.request_id,
                  &frame);
  if (!st.ok()) return st;
  *response = std::move(frame.response);
  return Status::OK();
}

Status NetClient::CallControl(const WireControlRequest& request,
                              WireControlResponse* response) {
  Status st = SendControl(request);
  if (!st.ok()) return st;
  Frame frame;
  st = AwaitFrame(this, FrameType::kControlResponse, request.request_id,
                  &frame);
  if (!st.ok()) return st;
  *response = std::move(frame.control_response);
  return Status::OK();
}

}  // namespace naru
