// streamhull: byte transports for the streamhulld session protocol.
//
// The server, the DeltaSender clients, and the soak harness all speak to a
// Transport — an ordered, unframed byte stream with explicit close — and
// never to a socket API. Two implementations:
//
//   * PipeTransport: an in-process pair of byte queues. This is what the
//     tests and the soak run on: fully deterministic (no kernel buffering,
//     no partial-write timing), with first-class fault injection — drop the
//     next send to simulate a lost frame, close one end to simulate a
//     producer crash. CreatePair() returns the two ends; bytes written to
//     one end are read from the other.
//
//   * UnixSocketTransport: a non-blocking AF_UNIX stream socket, the
//     deployment transport of the streamhulld daemon. UnixSocketListener
//     accepts connections on a filesystem path.
//
// Contract shared by all implementations: Send() either queues the entire
// byte string or fails within a bounded time — it never waits forever on
// a peer that stopped draining (UnixSocketTransport polls for
// writability up to a configurable deadline and then reports IOError, so
// one stuck reader costs one session, not a wedged sending thread);
// Recv() is non-blocking and appends whatever bytes are currently
// available (possibly none); both are safe to call concurrently from
// different threads (the server sends ACKs from pool strands while the
// pump thread reads). Recv() reports IOError exactly when no bytes are
// available *and* no more can ever arrive — the disconnect signal; until
// then a quiet peer just yields OK with nothing.

#ifndef STREAMHULL_SERVER_TRANSPORT_H_
#define STREAMHULL_SERVER_TRANSPORT_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace streamhull {

/// \brief An ordered byte stream between two endpoints. Thread-safe:
/// Send/Recv/Close may race from different threads.
class Transport {
 public:
  virtual ~Transport() = default;

  /// \brief Queues \p bytes for the peer, atomically (all or nothing).
  /// Fails IOError once either end is closed, and — within a bounded
  /// time, never an unbounded wait — when the peer stops accepting
  /// bytes.
  virtual Status Send(std::string_view bytes) = 0;

  /// \brief Non-blocking receive: appends every currently available byte
  /// to \p *out (which is not cleared — callers feed a FrameDecoder and
  /// typically pass a scratch string). Returns OK when bytes were
  /// delivered or the peer is merely quiet; IOError when the stream is
  /// finished (peer closed and everything already drained).
  virtual Status Recv(std::string* out) = 0;

  /// Closes this end. Idempotent. The peer drains what was already sent,
  /// then sees IOError from Recv.
  virtual void Close() = 0;

  /// True once this end was closed locally.
  virtual bool closed() const = 0;

  /// \brief A descriptor that poll(2) reports readable whenever Recv()
  /// has bytes or the disconnect to deliver, for a caller that waits on
  /// many transports at once; -1 when there is none (the caller then
  /// re-checks on a timer). The descriptor stays owned by the transport.
  virtual int poll_fd() const { return -1; }
};

/// \brief The in-process test transport: two ends over shared byte queues,
/// with loss injection. Obtain instances from CreatePair().
class PipeTransport : public Transport {
 public:
  /// Creates a connected pair; bytes sent on `first` arrive at `second`
  /// and vice versa. Each end owns a reference to the shared queues, so
  /// either may outlive the other.
  static std::pair<std::unique_ptr<PipeTransport>,
                   std::unique_ptr<PipeTransport>>
  CreatePair();

  Status Send(std::string_view bytes) override;
  Status Recv(std::string* out) override;
  void Close() override;
  bool closed() const override;

  /// \brief Fault injection: silently discards the next \p n Send() calls
  /// from this end (each call still returns OK — the sender believes the
  /// frame left, exactly like a radio fade). Cumulative.
  void DropNextSends(int n);

  /// Frames dropped so far through DropNextSends (test assertions).
  uint64_t dropped() const;

  /// \brief Bytes sent from this end and not yet received by the peer
  /// (test assertions for backpressure: a server refusing to read leaves
  /// them queued here).
  size_t outbox_bytes() const;

  ~PipeTransport() override;

 private:
  struct Shared;
  PipeTransport(std::shared_ptr<Shared> shared, bool is_a);
  std::shared_ptr<Shared> shared_;
  bool is_a_;
};

/// \brief How long UnixSocketTransport::Send waits for a full kernel
/// buffer to drain before failing the session with IOError.
inline constexpr int kDefaultSendUnwritableTimeoutMs = 5000;

/// \brief A connected non-blocking AF_UNIX stream socket. Used by the
/// streamhulld daemon and its clients; tests use PipeTransport.
class UnixSocketTransport : public Transport {
 public:
  /// Wraps an already-connected socket fd (takes ownership).
  explicit UnixSocketTransport(int fd);
  ~UnixSocketTransport() override;

  /// Connects to a listening streamhulld socket at \p path.
  static Status Connect(const std::string& path,
                        std::unique_ptr<UnixSocketTransport>* out);

  Status Send(std::string_view bytes) override;
  Status Recv(std::string* out) override;
  void Close() override;
  bool closed() const override;
  /// The socket, or -1 once closed.
  int poll_fd() const override;

  /// \brief Overrides how long Send() waits for an unwritable peer
  /// before failing with IOError (default
  /// kDefaultSendUnwritableTimeoutMs). Mainly for tests; deployments
  /// may shorten it to shed slow consumers faster.
  void set_send_unwritable_timeout_ms(int ms);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// \brief Accepts streamhulld connections on a Unix-domain socket path.
class UnixSocketListener {
 public:
  UnixSocketListener();
  ~UnixSocketListener();

  /// Binds and listens on \p path (unlinking a stale socket file first).
  Status Listen(const std::string& path);

  /// \brief Non-blocking accept: fills \p *out with a new connection, or
  /// leaves it null when nobody is waiting (both OK). IOError on listener
  /// failure.
  Status Accept(std::unique_ptr<UnixSocketTransport>* out);

  /// Closes the listener and removes the socket file.
  void Close();

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace streamhull

#endif  // STREAMHULL_SERVER_TRANSPORT_H_
