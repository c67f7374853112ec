#include "server/transport.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "runtime/failpoint.h"

namespace streamhull {

// Failpoint sites shared by every Transport implementation (the chaos
// soak and the crash-recovery tests arm these process-wide):
//
//   transport.send.ioerror   Send fails outright (peer "vanished")
//   transport.send.short     short(N): only the first N bytes reach the
//                            peer, then the send fails — a torn frame
//   transport.send.eintr     one simulated EINTR per fire (socket path
//                            only; exercises the retry loop)
//   transport.recv.ioerror   Recv fails as if the peer disconnected

// ---------------------------------------------------------------------------
// PipeTransport
// ---------------------------------------------------------------------------

struct PipeTransport::Shared {
  std::mutex mu;
  std::string a_to_b;  // Bytes in flight from end A to end B.
  std::string b_to_a;
  bool a_closed = false;
  bool b_closed = false;
  int drop_next_a = 0;  // Pending DropNextSends on each end.
  int drop_next_b = 0;
  uint64_t dropped_a = 0;
  uint64_t dropped_b = 0;
};

PipeTransport::PipeTransport(std::shared_ptr<Shared> shared, bool is_a)
    : shared_(std::move(shared)), is_a_(is_a) {}

PipeTransport::~PipeTransport() { Close(); }

std::pair<std::unique_ptr<PipeTransport>, std::unique_ptr<PipeTransport>>
PipeTransport::CreatePair() {
  auto shared = std::make_shared<Shared>();
  // make_unique cannot reach the private constructor.
  std::unique_ptr<PipeTransport> a(new PipeTransport(shared, true));
  std::unique_ptr<PipeTransport> b(new PipeTransport(shared, false));
  return {std::move(a), std::move(b)};
}

Status PipeTransport::Send(std::string_view bytes) {
  std::lock_guard<std::mutex> lock(shared_->mu);
  bool& my_closed = is_a_ ? shared_->a_closed : shared_->b_closed;
  bool& peer_closed = is_a_ ? shared_->b_closed : shared_->a_closed;
  if (my_closed || peer_closed) {
    return Status::IOError("pipe transport is closed");
  }
  int& drops = is_a_ ? shared_->drop_next_a : shared_->drop_next_b;
  if (drops > 0) {
    --drops;
    ++(is_a_ ? shared_->dropped_a : shared_->dropped_b);
    return Status::OK();  // The fault model: sender believes it delivered.
  }
  FailpointHit hit;
  if (FailpointFires("transport.send.ioerror", &hit)) {
    return hit.ToStatus("transport.send.ioerror");
  }
  if (FailpointFires("transport.send.short", &hit)) {
    // Torn write: a prefix reaches the peer, then the connection dies.
    // The peer's FrameDecoder sees a mid-frame truncation (and, if more
    // bytes ever follow, a poisoned stream) — exactly a real half-sent
    // frame.
    const size_t torn = static_cast<size_t>(hit.arg) < bytes.size()
                            ? static_cast<size_t>(hit.arg)
                            : bytes.size();
    (is_a_ ? shared_->a_to_b : shared_->b_to_a).append(bytes.substr(0, torn));
    return hit.ToStatus("transport.send.short");
  }
  (is_a_ ? shared_->a_to_b : shared_->b_to_a).append(bytes);
  return Status::OK();
}

Status PipeTransport::Recv(std::string* out) {
  FailpointHit hit;
  if (FailpointFires("transport.recv.ioerror", &hit)) {
    return hit.ToStatus("transport.recv.ioerror");
  }
  std::lock_guard<std::mutex> lock(shared_->mu);
  std::string& inbox = is_a_ ? shared_->b_to_a : shared_->a_to_b;
  if (!inbox.empty()) {
    out->append(inbox);
    inbox.clear();
    return Status::OK();
  }
  const bool my_closed = is_a_ ? shared_->a_closed : shared_->b_closed;
  const bool peer_closed = is_a_ ? shared_->b_closed : shared_->a_closed;
  if (my_closed || peer_closed) {
    return Status::IOError("pipe transport is closed");
  }
  return Status::OK();  // Quiet peer; more may arrive.
}

void PipeTransport::Close() {
  std::lock_guard<std::mutex> lock(shared_->mu);
  (is_a_ ? shared_->a_closed : shared_->b_closed) = true;
}

bool PipeTransport::closed() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return is_a_ ? shared_->a_closed : shared_->b_closed;
}

void PipeTransport::DropNextSends(int n) {
  std::lock_guard<std::mutex> lock(shared_->mu);
  (is_a_ ? shared_->drop_next_a : shared_->drop_next_b) += n;
}

uint64_t PipeTransport::dropped() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return is_a_ ? shared_->dropped_a : shared_->dropped_b;
}

size_t PipeTransport::outbox_bytes() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return (is_a_ ? shared_->a_to_b : shared_->b_to_a).size();
}

// ---------------------------------------------------------------------------
// UnixSocketTransport
// ---------------------------------------------------------------------------

struct UnixSocketTransport::Impl {
  std::mutex send_mu;  // Serializes frame writes from pump + strand threads.
  std::mutex recv_mu;
  int fd = -1;
  bool closed = false;
  bool peer_eof = false;
  int send_unwritable_timeout_ms = kDefaultSendUnwritableTimeoutMs;
};

namespace {

// Granularity of each poll(POLLOUT) wait while the kernel buffer is full;
// the overall bound is Impl::send_unwritable_timeout_ms.
constexpr int kSendPollSliceMs = 20;

void SetNonBlocking(int fd) {
  // Recv must never park the pump thread; Send waits for writability with
  // a bounded poll() (see Send) instead of blocking in the kernel.
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

UnixSocketTransport::UnixSocketTransport(int fd)
    : impl_(std::make_unique<Impl>()) {
  impl_->fd = fd;
  SetNonBlocking(fd);
}

UnixSocketTransport::~UnixSocketTransport() { Close(); }

Status UnixSocketTransport::Connect(
    const std::string& path, std::unique_ptr<UnixSocketTransport>* out) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket(): ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("connect(" + path + "): " + std::strerror(err));
  }
  *out = std::make_unique<UnixSocketTransport>(fd);
  return Status::OK();
}

Status UnixSocketTransport::Send(std::string_view bytes) {
  std::lock_guard<std::mutex> lock(impl_->send_mu);
  if (impl_->closed || impl_->fd < 0) {
    return Status::IOError("socket transport is closed");
  }
  FailpointHit hit;
  if (FailpointFires("transport.send.ioerror", &hit)) {
    return hit.ToStatus("transport.send.ioerror");
  }
  // short(N): cap every kernel write at N bytes, forcing the
  // partial-write resend loop below to finish the frame in pieces.
  size_t chunk_cap = bytes.size();
  if (FailpointFires("transport.send.short", &hit) && hit.arg > 0) {
    chunk_cap = static_cast<size_t>(hit.arg);
  }
  size_t sent = 0;
  bool waiting = false;
  std::chrono::steady_clock::time_point deadline;
  while (sent < bytes.size()) {
    if (FailpointFires("transport.send.eintr", &hit)) {
      continue;  // One simulated EINTR'd send(); the loop retries.
    }
    const size_t len = bytes.size() - sent < chunk_cap
                           ? bytes.size() - sent
                           : chunk_cap;
    const ssize_t n = ::send(impl_->fd, bytes.data() + sent,
                             len, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      waiting = false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: the peer has stopped draining. Wait for
      // writability with a hard wall-clock bound — a reader that stays
      // stuck must cost one session, never wedge the sending thread
      // (a tenant strand or the pump) in a 100%-CPU spin that freezes
      // the whole daemon.
      const auto now = std::chrono::steady_clock::now();
      if (!waiting) {
        waiting = true;
        deadline = now + std::chrono::milliseconds(
                             impl_->send_unwritable_timeout_ms);
      } else if (now >= deadline) {
        return Status::IOError(
            "send(): peer unwritable for " +
            std::to_string(impl_->send_unwritable_timeout_ms) +
            " ms (reader stopped draining)");
      }
      pollfd pfd{};
      pfd.fd = impl_->fd;
      pfd.events = POLLOUT;
      const int rc = ::poll(&pfd, 1, kSendPollSliceMs);
      if (rc < 0 && errno != EINTR) {
        return Status::IOError(std::string("poll(): ") +
                               std::strerror(errno));
      }
      // On POLLERR/POLLHUP the retried send() reports the precise error.
      continue;
    }
    return Status::IOError(std::string("send(): ") + std::strerror(errno));
  }
  return Status::OK();
}

void UnixSocketTransport::set_send_unwritable_timeout_ms(int ms) {
  std::lock_guard<std::mutex> lock(impl_->send_mu);
  impl_->send_unwritable_timeout_ms = ms;
}

Status UnixSocketTransport::Recv(std::string* out) {
  FailpointHit hit;
  if (FailpointFires("transport.recv.ioerror", &hit)) {
    return hit.ToStatus("transport.recv.ioerror");
  }
  std::lock_guard<std::mutex> lock(impl_->recv_mu);
  if (impl_->fd < 0) return Status::IOError("socket transport is closed");
  char buf[16384];
  bool any = false;
  for (;;) {
    const ssize_t n = ::recv(impl_->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      out->append(buf, static_cast<size_t>(n));
      any = true;
      continue;
    }
    if (n == 0) {  // Orderly peer shutdown.
      impl_->peer_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return Status::IOError(std::string("recv(): ") + std::strerror(errno));
  }
  if (!any && impl_->peer_eof) {
    return Status::IOError("peer closed the socket");
  }
  return Status::OK();
}

void UnixSocketTransport::Close() {
  std::lock_guard<std::mutex> send_lock(impl_->send_mu);
  std::lock_guard<std::mutex> recv_lock(impl_->recv_mu);
  if (impl_->fd >= 0) {
    ::close(impl_->fd);
    impl_->fd = -1;
  }
  impl_->closed = true;
}

bool UnixSocketTransport::closed() const {
  std::lock_guard<std::mutex> lock(impl_->send_mu);
  return impl_->closed;
}

int UnixSocketTransport::poll_fd() const {
  std::lock_guard<std::mutex> lock(impl_->recv_mu);
  return impl_->fd;
}

// ---------------------------------------------------------------------------
// UnixSocketListener
// ---------------------------------------------------------------------------

UnixSocketListener::UnixSocketListener() = default;

UnixSocketListener::~UnixSocketListener() { Close(); }

Status UnixSocketListener::Listen(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IOError(std::string("socket(): ") + std::strerror(errno));
  }
  ::unlink(path.c_str());  // A stale file from a previous run, not an error.
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    Close();
    return Status::IOError("bind(" + path + "): " + std::strerror(err));
  }
  if (::listen(fd_, 64) != 0) {
    const int err = errno;
    Close();
    return Status::IOError("listen(" + path + "): " + std::strerror(err));
  }
  SetNonBlocking(fd_);
  path_ = path;
  return Status::OK();
}

Status UnixSocketListener::Accept(std::unique_ptr<UnixSocketTransport>* out) {
  out->reset();
  if (fd_ < 0) return Status::IOError("listener is closed");
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return Status::OK();  // Nobody waiting.
    }
    return Status::IOError(std::string("accept(): ") + std::strerror(errno));
  }
  *out = std::make_unique<UnixSocketTransport>(client);
  return Status::OK();
}

void UnixSocketListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

}  // namespace streamhull
