#include "net/http_server.hpp"

#include <charconv>

#include "telemetry/trace.hpp"

namespace slices::net {
namespace {

/// Read from `conn` until a complete HTTP message (terminated head +
/// Content-Length-satisfied body) or EOF/limit. Returns the raw bytes.
Result<std::string> read_message(TcpConnection& conn) {
  std::string wire;
  std::size_t expected_total = 0;  // 0 = head not complete yet
  while (wire.size() < kMaxRequestBytes) {
    if (expected_total == 0) {
      const std::size_t head_end = wire.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        std::size_t content_length = 0;
        // Scan header block for Content-Length (case-insensitive match
        // is done by the full parser; a simple scan suffices to size
        // the read because we re-parse afterwards anyway).
        const std::string head = wire.substr(0, head_end);
        for (const char* name : {"Content-Length:", "content-length:", "Content-length:"}) {
          const std::size_t pos = head.find(name);
          if (pos == std::string::npos) continue;
          const char* first = head.data() + pos + std::string_view(name).size();
          while (first < head.data() + head.size() && *first == ' ') ++first;
          std::from_chars(first, head.data() + head.size(), content_length);
          break;
        }
        expected_total = head_end + 4 + content_length;
      }
    }
    if (expected_total > 0 && wire.size() >= expected_total) {
      return wire.substr(0, expected_total);
    }
    Result<std::string> chunk = conn.receive_some();
    if (!chunk.ok()) return chunk.error();
    if (chunk.value().empty()) {
      // EOF: deliver what we have (the parser will reject partials).
      return wire;
    }
    wire += chunk.value();
  }
  return make_error(Errc::protocol_error, "request exceeds size limit");
}

}  // namespace

Result<std::unique_ptr<HttpServer>> HttpServer::bind(std::shared_ptr<Router> router,
                                                     std::uint16_t port) {
  Result<TcpListener> listener = TcpListener::bind_loopback(port);
  if (!listener.ok()) return listener.error();
  return std::unique_ptr<HttpServer>(
      new HttpServer(std::move(router), std::move(listener).value()));
}

Result<void> HttpServer::serve_one() {
  Result<TcpConnection> accepted = listener_.accept_one();
  if (!accepted.ok()) return accepted.error();
  TcpConnection conn = std::move(accepted).value();

  Response response;
  const Result<std::string> wire = read_message(conn);
  if (!wire.ok()) {
    response = Response::from_error(wire.error());
  } else {
    const Result<Request> request = parse_request(wire.value());
    if (!request.ok()) {
      response = Response::from_error(request.error());
    } else {
      // Adopt a carried trace context (if any) so spans opened by the
      // handler parent the caller's span exactly like a direct dispatch
      // would. Invalid/absent headers make this a no-op.
      telemetry::trace::Context ctx;
      const auto trace_header =
          request.value().headers.find(telemetry::trace::kContextHeader);
      if (trace_header != request.value().headers.end()) {
        ctx = telemetry::trace::parse_context(trace_header->second);
      }
      telemetry::trace::ContextScope trace_scope(ctx);
      response = router_->dispatch(request.value());
    }
  }
  response.headers.insert_or_assign("Connection", "close");
  served_.fetch_add(1, std::memory_order_release);
  (void)conn.send_all(response.encode());
  conn.shutdown_write();
  return {};
}

std::uint64_t HttpServer::run() {
  std::uint64_t handled = 0;
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!serve_one().ok()) break;  // listener closed (stop) or fatal
    ++handled;
  }
  return handled;
}

Result<Response> http_request(std::uint16_t port, const Request& request) {
  Result<TcpConnection> connected = connect_loopback(port);
  if (!connected.ok()) return connected.error();
  TcpConnection conn = std::move(connected).value();

  if (Result<void> sent = conn.send_all(request.encode()); !sent.ok()) return sent.error();
  conn.shutdown_write();

  std::string wire;
  while (wire.size() < kMaxRequestBytes) {
    Result<std::string> chunk = conn.receive_some();
    if (!chunk.ok()) return chunk.error();
    if (chunk.value().empty()) break;  // server closed: full response in hand
    wire += chunk.value();
  }
  return parse_response(wire);
}

}  // namespace slices::net
