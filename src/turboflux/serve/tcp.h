#ifndef TURBOFLUX_SERVE_TCP_H_
#define TURBOFLUX_SERVE_TCP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "turboflux/common/status.h"
#include "turboflux/common/synchronization.h"
#include "turboflux/common/thread_annotations.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/serve/protocol.h"
#include "turboflux/serve/server.h"

namespace turboflux {
namespace serve {

/// TCP frontend: accepts connections on a loopback/any port, decodes
/// length-prefixed frames, dispatches requests to a Server, and writes
/// one response frame per request. One handler thread per connection —
/// the expected fan-in is a handful of producers, and the admission
/// queue (not the socket layer) is the concurrency bottleneck by design.
///
/// Each connection gets its own token bucket (ServeOptions.rate_limit_*),
/// so one hot producer cannot starve the rest of the admission window; a
/// refused acquire answers RETRY with the bucket's refill hint.
///
/// Robustness: a half-frame followed by disconnect is discarded (never
/// dispatched); a malformed frame or oversized length poisons only that
/// connection, which is answered with ERR where possible and closed.
class TcpServer {
 public:
  TcpServer() = default;
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral), starts the accept loop.
  /// A TcpServer is one-shot: once Listen has succeeded or Stop has run,
  /// Listen returns kFailedPrecondition (make a new TcpServer instead). A
  /// Listen that failed to bind may be retried.
  [[nodiscard]] Status Listen(Server& server, uint16_t port);

  /// Stops accepting, closes all connections, joins all threads.
  void Stop();

  /// The bound port (valid after Listen).
  uint16_t port() const { return port_; }

 private:
  void AcceptLoop(Server* server);
  void HandleConnection(Server* server, int fd);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  Mutex conn_mu_;
  std::vector<std::thread> conn_threads_ GUARDED_BY(conn_mu_);
  std::vector<int> conn_fds_ GUARDED_BY(conn_mu_);
};

/// Minimal blocking client for tests and the example session in the
/// README: sends one request frame, reads one response frame.
class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient();
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  [[nodiscard]] Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Round-trips `request`. With an injector whose plan sets
  /// drop_connection_at_frame, the marked frame is torn mid-send and the
  /// connection closed (the server must discard the partial frame).
  [[nodiscard]] Status Call(const Request& request, Response* response,
                            FaultInjector* injector = nullptr);

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace serve
}  // namespace turboflux

#endif  // TURBOFLUX_SERVE_TCP_H_
