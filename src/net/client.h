// Client side of the wire protocol: a blocking connection that speaks
// net/protocol.h frames.
//
// This is the library naru_cli --connect and bench_serving_net are built
// on. It is deliberately thin: a connected TCP socket, Send* helpers that
// write one encoded frame, and ReadFrame() which reassembles exactly one
// frame from the stream (frames may arrive back-to-back or split across
// reads; an internal buffer carries the remainder). Synchronous
// convenience wrappers (CallEstimate / CallControl) cover the common
// one-outstanding-request case; pipelined callers use Send*/ReadFrame
// directly and match responses by request_id, since the server replies in
// COMPLETION order, not submission order.
//
// A kError frame from the server is surfaced as a decoded Frame, not
// swallowed into a Status: callers need the fatal flag (fatal=true means
// the server will close this connection) and the echoed request_id.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/protocol.h"
#include "util/status.h"

namespace naru {

/// Splits "host:port", ":port", or a bare "port" (host defaults to
/// 127.0.0.1). InvalidArgument on an unparsable port or empty input, and
/// on port 0 unless `listen` is set: a listen spec may name port 0, which
/// binds an ephemeral port (NetServer::port() reports the one chosen).
Status ParseHostPort(std::string_view spec, std::string* host, uint16_t* port,
                     bool listen = false);

class NetClient {
 public:
  NetClient() = default;
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Opens a blocking TCP connection. IOError on failure.
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }

  /// Bounds every subsequent ReadFrame (SO_RCVTIMEO). 0 restores
  /// block-forever. Tests use this so a server bug cannot hang them.
  Status SetRecvTimeoutMs(int timeout_ms);

  /// Half-close: tells the server no more requests are coming while
  /// responses can still be read — the client side of graceful drain.
  void FinishWrites();

  void Close();

  Status SendEstimate(const WireEstimateRequest& request);
  Status SendControl(const WireControlRequest& request);
  /// Writes raw bytes verbatim — the malformed-frame tests' entry point.
  Status SendRaw(std::string_view bytes);

  /// Blocks until one whole frame is decoded. IOError on EOF/timeout/
  /// socket failure; decode errors surface as the decoder's Status.
  Status ReadFrame(Frame* out);

  /// Send + read until the kEstimateResponse echoing this request_id
  /// arrives (other frame types: kError becomes a Status, unexpected
  /// responses for other ids are an error — use ReadFrame when
  /// pipelining).
  Status CallEstimate(const WireEstimateRequest& request,
                      WireEstimateResponse* response);
  Status CallControl(const WireControlRequest& request,
                     WireControlResponse* response);

 private:
  int fd_ = -1;
  std::string inbuf_;  ///< bytes read past the last decoded frame
};

}  // namespace naru
