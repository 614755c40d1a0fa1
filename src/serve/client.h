// BlockingClient: a minimal synchronous client for the verdict server's
// framing — connect, send RequestFrames, read ResponseFrames. Used by the
// server tests (tests/serve_server_test.cc) and perfbench's serve_live
// workload. One thread may send while another receives: the two
// directions touch disjoint state (the fd's write side vs its read side +
// decoder).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "serve/frame.h"

namespace smash::serve {

class BlockingClient {
 public:
  // Throws std::runtime_error when the connection fails.
  BlockingClient(const std::string& address, std::uint16_t port);
  ~BlockingClient();

  BlockingClient(BlockingClient&& other) noexcept;
  BlockingClient& operator=(BlockingClient&&) = delete;
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  // Writes the whole encoded frame (throws on a broken connection).
  void send(const RequestFrame& request);
  // Writes raw bytes as-is — tests use it to send torn or hostile frames.
  void send_raw(std::string_view bytes);

  // Blocks for the next complete response frame; nullopt on EOF. Throws
  // on a malformed response (the server broke the framing contract).
  std::optional<ResponseFrame> receive();

  // send() + receive() for the simple call-response case.
  std::optional<ResponseFrame> call(const RequestFrame& request);

  int fd() const noexcept { return fd_; }
  void close();

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace smash::serve
