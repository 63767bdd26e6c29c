#pragma once
// Blocking HTTP/1.1 server over real sockets.
//
// Exposes any Router (the same ones the RestBus serves in-process) on a
// loopback TCP port: accept -> read one full request (header-delimited,
// Content-Length-bounded body) -> dispatch -> write response -> close.
// One connection at a time, one request per connection — the demo
// dashboard's query pattern. `serve_one()` processes a single
// connection; `run()` loops until `stop()` closes the listener from
// another thread.

#include <atomic>
#include <cstdint>
#include <memory>

#include "net/http.hpp"
#include "net/router.hpp"
#include "net/tcp.hpp"

namespace slices::net {

/// Hard cap on one request's wire size (headers + body).
inline constexpr std::size_t kMaxRequestBytes = 4 * 1024 * 1024;

class HttpServer {
 public:
  /// Bind 127.0.0.1:`port` (0 = ephemeral). The router must outlive the
  /// server. Returned by pointer because the server owns an atomic stop
  /// flag shared with other threads and must not move. Errors:
  /// unavailable (bind/listen failure).
  [[nodiscard]] static Result<std::unique_ptr<HttpServer>> bind(std::shared_ptr<Router> router,
                                                                std::uint16_t port = 0);

  /// The bound port.
  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// Accept and fully serve exactly one connection. Malformed requests
  /// get a 400; oversized ones a 400 after a bounded read. Returns an
  /// error only when the listener itself failed (e.g. stopped).
  [[nodiscard]] Result<void> serve_one();

  /// Serve until stop(); returns the number of connections handled.
  std::uint64_t run();

  /// Unblock run()/serve_one() by closing the listener (thread-safe to
  /// call from another thread).
  void stop() noexcept {
    stopping_.store(true, std::memory_order_relaxed);
    listener_.close();
  }

  /// Connections answered so far (thread-safe). A connection is counted
  /// before its response is written, so a client that has read its
  /// response already sees its connection in the count.
  [[nodiscard]] std::uint64_t connections_served() const noexcept {
    return served_.load(std::memory_order_acquire);
  }

 private:
  HttpServer(std::shared_ptr<Router> router, TcpListener listener) noexcept
      : router_(std::move(router)), listener_(std::move(listener)) {}

  std::shared_ptr<Router> router_;
  TcpListener listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> served_{0};
};

/// Blocking HTTP client for tests/tools: one request over a fresh
/// loopback connection.
[[nodiscard]] Result<Response> http_request(std::uint16_t port, const Request& request);

}  // namespace slices::net
