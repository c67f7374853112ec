// Tests for the byte transports (server/transport.h). The pipe pair is
// covered end-to-end by the server suites; this file pins the transport
// contracts themselves — above all that UnixSocketTransport::Send fails
// with IOError within a bounded time when the peer stops reading (a full
// kernel buffer must cost one session, never wedge the sending thread in
// an unbounded wait).

#include "server/transport.h"

#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include <sys/socket.h>

namespace streamhull {
namespace {

TEST(PipeTransportTest, OutboxBytesTracksUnreceivedSends) {
  auto [a, b] = PipeTransport::CreatePair();
  EXPECT_EQ(a->outbox_bytes(), 0u);
  ASSERT_TRUE(a->Send("hello").ok());
  EXPECT_EQ(a->outbox_bytes(), 5u);
  ASSERT_TRUE(a->Send("!").ok());
  EXPECT_EQ(a->outbox_bytes(), 6u);
  EXPECT_EQ(b->outbox_bytes(), 0u);  // Per direction.
  std::string got;
  ASSERT_TRUE(b->Recv(&got).ok());
  EXPECT_EQ(got, "hello!");
  EXPECT_EQ(a->outbox_bytes(), 0u);
}

TEST(PipeTransportTest, HasNoPollFd) {
  auto [a, b] = PipeTransport::CreatePair();
  EXPECT_EQ(a->poll_fd(), -1);
  EXPECT_EQ(b->poll_fd(), -1);
}

TEST(UnixSocketTransportTest, PollFdIsTheSocketUntilClosed) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  UnixSocketTransport a(fds[0]);
  UnixSocketTransport b(fds[1]);
  EXPECT_EQ(a.poll_fd(), fds[0]);
  EXPECT_EQ(b.poll_fd(), fds[1]);
  a.Close();
  EXPECT_EQ(a.poll_fd(), -1);
}

TEST(UnixSocketTransportTest, SendFailsBoundedWhenPeerStopsReading) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  UnixSocketTransport writer(fds[0]);
  UnixSocketTransport reader(fds[1]);  // Never reads: a stuck client.
  writer.set_send_unwritable_timeout_ms(200);

  const std::string chunk(64 * 1024, 'x');
  Status st = Status::OK();
  const auto start = std::chrono::steady_clock::now();
  // Fill the kernel buffer until the bounded wait trips. Before the
  // bound existed this loop spun forever at 100% CPU.
  for (int i = 0; i < 1024 && st.ok(); ++i) st = writer.Send(chunk);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("unwritable"), std::string::npos)
      << st.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

TEST(UnixSocketTransportTest, SendRecvRoundTripAcrossSocketPair) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  UnixSocketTransport a(fds[0]);
  UnixSocketTransport b(fds[1]);
  ASSERT_TRUE(a.Send("ping").ok());
  std::string got;
  ASSERT_TRUE(b.Recv(&got).ok());
  EXPECT_EQ(got, "ping");
  a.Close();
  got.clear();
  // Drained and closed: Recv reports the disconnect.
  EXPECT_EQ(b.Recv(&got).code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace streamhull
