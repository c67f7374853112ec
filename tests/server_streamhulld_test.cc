// End-to-end tests for the streamhulld server core (server/streamhulld.h)
// over in-process pipe transports: session authentication, the
// OPEN/DATA/ACK/NAK protocol, per-session backpressure, wire-protocol
// certified queries, snapshot persistence with restart restore, and a
// mini soak for sanitizer coverage; then the pump loop's readiness wait
// over socketpair sessions, with the pump on its own thread. This suite
// spawns the server's ThreadPool, so CI also runs it under
// ThreadSanitizer.

#include "server/streamhulld.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include "common/rng.h"
#include "core/hull_engine.h"
#include "core/snapshot.h"
#include "server/delta_sender.h"
#include "server/transport.h"
#include "server/wire.h"

namespace streamhull {
namespace {

constexpr const char* kTenant = "acme";
constexpr const char* kToken = "acme-token";

ServerOptions SmallServerOptions() {
  ServerOptions o;
  o.engine.hull.r = 16;
  o.num_threads = 2;
  return o;
}

// A minimal synchronous client: one pipe session, helpers that pump the
// server until the expected reply arrives.
struct Client {
  std::unique_ptr<PipeTransport> link;
  FrameDecoder replies;

  void Send(const SessionMessage& msg) {
    ASSERT_TRUE(link->Send(EncodeSessionFrame(msg)).ok());
  }

  // Pumps the server until a reply message is available (or pumps run out).
  bool Await(StreamHullServer* server, SessionMessage* out) {
    for (int attempt = 0; attempt < 50; ++attempt) {
      server->PumpOnce();
      server->Flush();
      std::string bytes;
      (void)link->Recv(&bytes);
      replies.Feed(bytes);
      std::string frame;
      bool got = false;
      if (!replies.Next(&frame, &got).ok()) return false;
      if (got) return DecodeSessionMessage(frame, out).ok();
    }
    return false;
  }
};

Client Attach(StreamHullServer* server) {
  Client c;
  auto [client_end, server_end] = PipeTransport::CreatePair();
  c.link = std::move(client_end);
  server->AttachSession(std::move(server_end));
  return c;
}

// Full handshake: HELLO -> HELLO_OK -> OPEN -> OPEN_OK.
void Handshake(StreamHullServer* server, Client* c,
               const std::string& stream, uint64_t* held = nullptr) {
  SessionMessage hello;
  hello.type = SessionMessageType::kHello;
  hello.version = kServerProtocolVersion;
  hello.token = kToken;
  c->Send(hello);
  SessionMessage reply;
  ASSERT_TRUE(c->Await(server, &reply));
  ASSERT_EQ(reply.type, SessionMessageType::kHelloOk);
  SessionMessage open;
  open.type = SessionMessageType::kOpen;
  open.stream = stream;
  c->Send(open);
  ASSERT_TRUE(c->Await(server, &reply));
  ASSERT_EQ(reply.type, SessionMessageType::kOpenOk);
  if (held != nullptr) *held = reply.generation;
}

// The wire bytes of `frames` DATA messages on stream "s0" from one
// adaptive r=16 producer, 100 fresh points per frame (a full frame, then
// chained deltas); *generation receives the last frame's generation.
std::string DataBurst(int frames, uint64_t* generation) {
  EngineOptions engine_options;
  engine_options.hull.r = 16;
  auto engine = MakeEngine(EngineKind::kAdaptive, engine_options);
  DeltaSender sender(engine.get());
  Rng rng(23);
  std::string bytes;
  for (int f = 0; f < frames; ++f) {
    for (int i = 0; i < 100; ++i) {
      engine->Insert({rng.Normal(), rng.Normal()});
    }
    DeltaSender::Frame frame;
    EXPECT_TRUE(sender.NextFrame(&frame).ok());
    SessionMessage data;
    data.type = SessionMessageType::kData;
    data.stream = "s0";
    data.payload = frame.bytes;
    bytes += EncodeSessionFrame(data);
  }
  *generation = engine->Generation();
  return bytes;
}

TEST(StreamHullServerTest, RejectsBadToken) {
  StreamHullServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  Client c = Attach(&server);
  SessionMessage hello;
  hello.type = SessionMessageType::kHello;
  hello.version = kServerProtocolVersion;
  hello.token = "wrong-token";
  c.Send(hello);
  SessionMessage reply;
  ASSERT_TRUE(c.Await(&server, &reply));
  EXPECT_EQ(reply.type, SessionMessageType::kError);
  // The session is closed: the transport drains to IOError eventually.
  server.PumpOnce();
  server.Flush();
  server.PumpOnce();
  EXPECT_EQ(server.session_count(), 0u);
}

TEST(StreamHullServerTest, RejectsWrongProtocolVersion) {
  StreamHullServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  Client c = Attach(&server);
  SessionMessage hello;
  hello.type = SessionMessageType::kHello;
  hello.version = kServerProtocolVersion + 7;
  hello.token = kToken;
  c.Send(hello);
  SessionMessage reply;
  ASSERT_TRUE(c.Await(&server, &reply));
  EXPECT_EQ(reply.type, SessionMessageType::kError);
}

TEST(StreamHullServerTest, DataBeforeHelloClosesSession) {
  StreamHullServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  Client c = Attach(&server);
  SessionMessage data;
  data.type = SessionMessageType::kData;
  data.stream = "s";
  data.payload = "junk";
  c.Send(data);
  SessionMessage reply;
  ASSERT_TRUE(c.Await(&server, &reply));
  EXPECT_EQ(reply.type, SessionMessageType::kError);
}

TEST(StreamHullServerTest, RejectsInvalidStreamNames) {
  StreamHullServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  Client c = Attach(&server);
  SessionMessage hello;
  hello.type = SessionMessageType::kHello;
  hello.version = kServerProtocolVersion;
  hello.token = kToken;
  c.Send(hello);
  SessionMessage reply;
  ASSERT_TRUE(c.Await(&server, &reply));
  ASSERT_EQ(reply.type, SessionMessageType::kHelloOk);
  SessionMessage open;
  open.type = SessionMessageType::kOpen;
  open.stream = "../etc/passwd";
  c.Send(open);
  ASSERT_TRUE(c.Await(&server, &reply));
  EXPECT_EQ(reply.type, SessionMessageType::kError);
}

TEST(StreamHullServerTest, IngestAckAndCertifiedQueryRoundTrip) {
  StreamHullServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  Client c = Attach(&server);
  Handshake(&server, &c, "s0");

  EngineOptions engine_options;
  engine_options.hull.r = 16;
  auto engine = MakeEngine(EngineKind::kAdaptive, engine_options);
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    engine->Insert({rng.Normal(), rng.Normal()});
  }
  DeltaSender sender(engine.get());
  DeltaSender::Frame frame;
  ASSERT_TRUE(sender.NextFrame(&frame).ok());

  SessionMessage data;
  data.type = SessionMessageType::kData;
  data.stream = "s0";
  data.payload = frame.bytes;
  c.Send(data);
  SessionMessage reply;
  ASSERT_TRUE(c.Await(&server, &reply));
  ASSERT_EQ(reply.type, SessionMessageType::kAck);
  EXPECT_EQ(reply.generation, engine->num_points());

  // A delta on top.
  for (int i = 0; i < 500; ++i) {
    engine->Insert({rng.Normal(), rng.Normal()});
  }
  ASSERT_TRUE(sender.NextFrame(&frame).ok());
  EXPECT_TRUE(frame.is_delta);
  data.payload = frame.bytes;
  c.Send(data);
  ASSERT_TRUE(c.Await(&server, &reply));
  ASSERT_EQ(reply.type, SessionMessageType::kAck);
  EXPECT_EQ(reply.generation, engine->num_points());

  // Certified diameter over the wire matches the server-side view.
  SessionMessage query;
  query.type = SessionMessageType::kQuery;
  query.query = ServerQueryKind::kDiameter;
  query.stream = "s0";
  c.Send(query);
  ASSERT_TRUE(c.Await(&server, &reply));
  ASSERT_EQ(reply.type, SessionMessageType::kQueryResult);
  EXPECT_GT(reply.hi, 0.0);
  EXPECT_LE(reply.lo, reply.hi);

  TenantMetrics tm;
  ASSERT_TRUE(server.Metrics(kTenant, &tm).ok());
  EXPECT_EQ(tm.full_frames, 1u);
  EXPECT_EQ(tm.delta_frames, 1u);
  EXPECT_EQ(tm.queries, 1u);
}

TEST(StreamHullServerTest, GenerationGapDrawsNakWithHeldGeneration) {
  StreamHullServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  Client c = Attach(&server);
  Handshake(&server, &c, "s0");

  EngineOptions engine_options;
  engine_options.hull.r = 16;
  auto engine = MakeEngine(EngineKind::kAdaptive, engine_options);
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    engine->Insert({rng.Normal(), rng.Normal()});
  }
  DeltaSender sender(engine.get());
  DeltaSender::Frame full, lost, next;
  ASSERT_TRUE(sender.NextFrame(&full).ok());
  SessionMessage data;
  data.type = SessionMessageType::kData;
  data.stream = "s0";
  data.payload = full.bytes;
  c.Send(data);
  SessionMessage reply;
  ASSERT_TRUE(c.Await(&server, &reply));
  ASSERT_EQ(reply.type, SessionMessageType::kAck);

  // Produce a delta but "lose" it; the next delta chains past the gap.
  for (int i = 0; i < 300; ++i) engine->Insert({rng.Normal(), rng.Normal()});
  ASSERT_TRUE(sender.NextFrame(&lost).ok());
  for (int i = 0; i < 300; ++i) engine->Insert({rng.Normal(), rng.Normal()});
  ASSERT_TRUE(sender.NextFrame(&next).ok());
  ASSERT_TRUE(next.is_delta);
  data.payload = next.bytes;
  c.Send(data);
  ASSERT_TRUE(c.Await(&server, &reply));
  ASSERT_EQ(reply.type, SessionMessageType::kNak);
  EXPECT_EQ(reply.generation, full.generation);  // What the server holds.

  // The NAK-triggered resync heals the stream.
  sender.OnNak();
  DeltaSender::Frame resync;
  ASSERT_TRUE(sender.NextFrame(&resync).ok());
  EXPECT_FALSE(resync.is_delta);
  data.payload = resync.bytes;
  c.Send(data);
  ASSERT_TRUE(c.Await(&server, &reply));
  ASSERT_EQ(reply.type, SessionMessageType::kAck);
  EXPECT_EQ(reply.generation, engine->num_points());

  TenantMetrics tm;
  ASSERT_TRUE(server.Metrics(kTenant, &tm).ok());
  EXPECT_EQ(tm.resyncs, 1u);
}

TEST(StreamHullServerTest, MalformedDataPayloadDrawsErrorNotCrash) {
  StreamHullServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  Client c = Attach(&server);
  Handshake(&server, &c, "s0");
  SessionMessage data;
  data.type = SessionMessageType::kData;
  data.stream = "s0";
  data.payload = "definitely not a snapshot frame";
  c.Send(data);
  SessionMessage reply;
  ASSERT_TRUE(c.Await(&server, &reply));
  EXPECT_EQ(reply.type, SessionMessageType::kError);
  TenantMetrics tm;
  ASSERT_TRUE(server.Metrics(kTenant, &tm).ok());
  EXPECT_EQ(tm.rejected_frames, 1u);
}

TEST(StreamHullServerTest, SnapshotSaveThenRestoreAcrossRestart) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      "streamhulld_test_snapshots";
  std::filesystem::remove_all(dir);
  ServerOptions options = SmallServerOptions();
  options.snapshot_dir = dir.string();

  EngineOptions engine_options;
  engine_options.hull.r = 16;
  auto engine = MakeEngine(EngineKind::kAdaptive, engine_options);
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    engine->Insert({rng.Normal() * 3.0, rng.Normal()});
  }
  uint64_t acked_generation = 0;
  {
    StreamHullServer server(options);
    ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
    Client c = Attach(&server);
    Handshake(&server, &c, "s0");
    DeltaSender sender(engine.get());
    DeltaSender::Frame frame;
    ASSERT_TRUE(sender.NextFrame(&frame).ok());
    SessionMessage data;
    data.type = SessionMessageType::kData;
    data.stream = "s0";
    data.payload = frame.bytes;
    c.Send(data);
    SessionMessage reply;
    ASSERT_TRUE(c.Await(&server, &reply));
    ASSERT_EQ(reply.type, SessionMessageType::kAck);
    acked_generation = reply.generation;
    ASSERT_TRUE(server.SaveSnapshots().ok());
  }

  // A new server instance restores the stream and reports its generation
  // at OPEN, so a reconnecting producer can chain deltas immediately.
  StreamHullServer server(options);
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  TenantMetrics tm;
  ASSERT_TRUE(server.Metrics(kTenant, &tm).ok());
  EXPECT_EQ(tm.restored_streams, 1u);
  Client c = Attach(&server);
  uint64_t held = 0;
  Handshake(&server, &c, "s0", &held);
  EXPECT_EQ(held, acked_generation);

  // And the restored view still answers certified queries.
  SummaryView view;
  ASSERT_TRUE(server.View(kTenant, "s0", &view).ok());

  // The producer's next delta applies against the restored view.
  DeltaSender sender(engine.get());
  sender.Resume(acked_generation);
  for (int i = 0; i < 500; ++i) {
    engine->Insert({rng.Normal() * 3.0, rng.Normal()});
  }
  DeltaSender::Frame frame;
  ASSERT_TRUE(sender.NextFrame(&frame).ok());
  EXPECT_TRUE(frame.is_delta);
  SessionMessage data;
  data.type = SessionMessageType::kData;
  data.stream = "s0";
  data.payload = frame.bytes;
  c.Send(data);
  SessionMessage reply;
  ASSERT_TRUE(c.Await(&server, &reply));
  EXPECT_EQ(reply.type, SessionMessageType::kAck);
  std::filesystem::remove_all(dir);
}

TEST(StreamHullServerTest, TenantsAreIsolated) {
  StreamHullServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddTenant("alpha", "alpha-token").ok());
  ASSERT_TRUE(server.AddTenant("beta", "beta-token").ok());
  // Duplicate tenant name and duplicate token are refused.
  EXPECT_FALSE(server.AddTenant("alpha", "other").ok());
  EXPECT_FALSE(server.AddTenant("gamma", "alpha-token").ok());

  Client a = Attach(&server);
  SessionMessage hello;
  hello.type = SessionMessageType::kHello;
  hello.version = kServerProtocolVersion;
  hello.token = "alpha-token";
  a.Send(hello);
  SessionMessage reply;
  ASSERT_TRUE(a.Await(&server, &reply));
  ASSERT_EQ(reply.type, SessionMessageType::kHelloOk);
  SessionMessage open;
  open.type = SessionMessageType::kOpen;
  open.stream = "shared-name";
  a.Send(open);
  ASSERT_TRUE(a.Await(&server, &reply));
  ASSERT_EQ(reply.type, SessionMessageType::kOpenOk);

  // The stream registered under alpha only: tenants share nothing.
  TenantMetrics alpha, beta;
  ASSERT_TRUE(server.Metrics("alpha", &alpha).ok());
  ASSERT_TRUE(server.Metrics("beta", &beta).ok());
  EXPECT_EQ(alpha.streams, 1u);
  EXPECT_EQ(beta.streams, 0u);
  SummaryView view;
  EXPECT_FALSE(server.View("beta", "shared-name", &view).ok());
}

TEST(StreamHullServerTest, AtThePendingBoundThePumpStopsReadingTheTransport) {
  // max_pending_per_session = 0 keeps the session permanently at its
  // bound: the pump must not Recv at all, so the client's bytes stay
  // queued in the pipe instead of accumulating in the server-side
  // decoder — per-session buffering is bounded by refusing to read the
  // transport, never grown behind the strand's back.
  ServerOptions options = SmallServerOptions();
  options.max_pending_per_session = 0;
  StreamHullServer server(options);
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  Client c = Attach(&server);
  SessionMessage hello;
  hello.type = SessionMessageType::kHello;
  hello.version = kServerProtocolVersion;
  hello.token = kToken;
  c.Send(hello);
  const size_t queued = c.link->outbox_bytes();
  ASSERT_GT(queued, 0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(server.PumpOnce(), 0u);
    server.Flush();
  }
  EXPECT_EQ(c.link->outbox_bytes(), queued);
}

TEST(StreamHullServerTest, BoundOneDrainsABurstWithoutLossOrDeadlock) {
  // Liveness of transport-level backpressure: a burst far past the bound
  // is read as the strand catches up, and every frame is eventually
  // ACKed in order.
  ServerOptions options = SmallServerOptions();
  options.max_pending_per_session = 1;
  StreamHullServer server(options);
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  Client c = Attach(&server);
  Handshake(&server, &c, "s0");

  constexpr int kFrames = 16;
  uint64_t generation = 0;
  // The whole burst queues before the server reads any.
  ASSERT_TRUE(c.link->Send(DataBurst(kFrames, &generation)).ok());
  SessionMessage reply;
  for (int acks = 0; acks < kFrames; ++acks) {
    ASSERT_TRUE(c.Await(&server, &reply));
    ASSERT_EQ(reply.type, SessionMessageType::kAck);
  }
  EXPECT_EQ(reply.generation, generation);
  EXPECT_EQ(c.link->outbox_bytes(), 0u);
}

TEST(StreamHullServerTest, FramesSentBeforeAnOrderlyCloseSurviveTheBound) {
  // A producer that sends a burst and hangs up: the bound holds most of
  // the burst back in the decoder when the pump sees the disconnect, and
  // every one of those complete frames must still be applied before the
  // session ends.
  ServerOptions options = SmallServerOptions();
  options.max_pending_per_session = 1;
  StreamHullServer server(options);
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  Client c = Attach(&server);
  Handshake(&server, &c, "s0");

  constexpr int kFrames = 16;
  uint64_t generation = 0;
  ASSERT_TRUE(c.link->Send(DataBurst(kFrames, &generation)).ok());
  c.link->Close();
  for (int i = 0; i < 100 && server.session_count() > 0; ++i) {
    server.PumpOnce();
    server.Flush();
  }
  EXPECT_EQ(server.session_count(), 0u);
  TenantMetrics tm;
  ASSERT_TRUE(server.Metrics(kTenant, &tm).ok());
  EXPECT_EQ(tm.frames, static_cast<uint64_t>(kFrames));
  EXPECT_EQ(tm.full_frames + tm.delta_frames,
            static_cast<uint64_t>(kFrames));
  // A reconnecting producer is told the burst's last generation is held.
  Client again = Attach(&server);
  uint64_t held = 0;
  Handshake(&server, &again, "s0", &held);
  EXPECT_EQ(held, generation);
}

TEST(StreamHullServerTest, MiniSoakManyProducersWithLossAndBackpressure) {
  // Sanitizer-facing mini soak: several concurrent sessions, injected
  // frame loss, NAK recovery, bounded windows, interleaved queries.
  ServerOptions options = SmallServerOptions();
  options.max_pending_per_session = 4;
  StreamHullServer server(options);
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());

  constexpr int kProducers = 4;
  struct Producer {
    std::unique_ptr<HullEngine> engine;
    std::unique_ptr<DeltaSender> sender;
    Client client;
    std::string stream;
  };
  EngineOptions engine_options;
  engine_options.hull.r = 16;
  std::vector<Producer> producers(kProducers);
  Rng rng(14);
  for (int i = 0; i < kProducers; ++i) {
    Producer& p = producers[i];
    p.stream = "s" + std::to_string(i);
    p.engine = MakeEngine(AllEngineKinds()[i % AllEngineKinds().size()],
                          engine_options);
    DeltaSenderOptions sender_options;
    sender_options.max_in_flight = 2;
    p.sender = std::make_unique<DeltaSender>(p.engine.get(), sender_options);
    p.client = Attach(&server);
    Handshake(&server, &p.client, p.stream);
  }

  for (int round = 0; round < 20; ++round) {
    for (Producer& p : producers) {
      for (int i = 0; i < 100; ++i) {
        p.engine->Insert({rng.Normal(), rng.Normal()});
      }
      if (!p.sender->Ready()) continue;
      DeltaSender::Frame frame;
      ASSERT_TRUE(p.sender->NextFrame(&frame).ok());
      if ((round * 7 + (&p - &producers[0]) * 3) % 11 == 0) {
        p.client.link->DropNextSends(1);
      }
      SessionMessage data;
      data.type = SessionMessageType::kData;
      data.stream = p.stream;
      data.payload = frame.bytes;
      p.client.Send(data);
    }
    server.PumpOnce();
    server.Flush();
    for (Producer& p : producers) {
      std::string bytes;
      (void)p.client.link->Recv(&bytes);
      p.client.replies.Feed(bytes);
      for (;;) {
        std::string payload;
        bool got = false;
        ASSERT_TRUE(p.client.replies.Next(&payload, &got).ok());
        if (!got) break;
        SessionMessage msg;
        ASSERT_TRUE(DecodeSessionMessage(payload, &msg).ok());
        if (msg.type == SessionMessageType::kAck) {
          p.sender->OnAck(msg.generation);
        } else if (msg.type == SessionMessageType::kNak) {
          p.sender->OnNak();
        }
      }
    }
  }

  // Drain to quiescence, then every stream must hold a consistent view.
  for (int i = 0; i < 10; ++i) {
    server.PumpOnce();
    server.Flush();
  }
  TenantMetrics tm;
  ASSERT_TRUE(server.Metrics(kTenant, &tm).ok());
  EXPECT_EQ(tm.streams, static_cast<uint64_t>(kProducers));
  EXPECT_GT(tm.full_frames + tm.delta_frames, 0u);
  EXPECT_EQ(tm.rejected_frames, 0u);
}

// ---------------------------------------------------------------------------
// The readiness wait over Unix sockets. The daemon's loop is PumpOnce(),
// then WaitForWork(1) whenever nothing was dispatched.
// ---------------------------------------------------------------------------

SessionMessage Hello() {
  SessionMessage hello;
  hello.type = SessionMessageType::kHello;
  hello.version = kServerProtocolVersion;
  hello.token = kToken;
  return hello;
}

// Attaches the server end of a fresh socketpair; returns the client end.
std::unique_ptr<UnixSocketTransport> AttachSocket(StreamHullServer* server) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  server->AttachSession(std::make_unique<UnixSocketTransport>(fds[1]));
  return std::make_unique<UnixSocketTransport>(fds[0]);
}

// A client that blocks on its own socket for each reply, as a producer
// talking to a separately pumped server does.
struct SocketClient {
  std::unique_ptr<UnixSocketTransport> link;
  FrameDecoder replies;

  // Sends \p frames, then waits up to 5 s for the next reply.
  bool Request(const std::string& frames, SessionMessage* reply) {
    if (!link->Send(frames).ok()) return false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      std::string frame;
      bool got = false;
      if (!replies.Next(&frame, &got).ok()) return false;
      if (got) return DecodeSessionMessage(frame, reply).ok();
      pollfd pfd{link->poll_fd(), POLLIN, 0};
      (void)::poll(&pfd, 1, 100);
      std::string bytes;
      if (!link->Recv(&bytes).ok()) return false;
      replies.Feed(bytes);
    }
    return false;
  }
};

// Runs the daemon's pump loop (without the listener) until destroyed.
class PumpThread {
 public:
  explicit PumpThread(StreamHullServer* server)
      : thread_([this, server] {
          while (!stop_.load(std::memory_order_relaxed)) {
            if (server->PumpOnce() == 0) server->WaitForWork(1);
          }
        }) {}
  ~PumpThread() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  PumpThread(const PumpThread&) = delete;
  PumpThread& operator=(const PumpThread&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  // Last: starts once stop_ exists.
};

TEST(StreamHullServerWaitTest, WakesWhenASocketSessionTurnsReadable) {
  StreamHullServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  std::unique_ptr<UnixSocketTransport> client = AttachSocket(&server);
  const auto start = std::chrono::steady_clock::now();
  std::thread writer([&client] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(client->Send(EncodeSessionFrame(Hello())).ok());
  });
  server.WaitForWork(10000);
  const auto waited = std::chrono::steady_clock::now() - start;
  writer.join();
  EXPECT_GE(waited, std::chrono::milliseconds(15));  // A quiet socket waits.
  EXPECT_LT(waited, std::chrono::seconds(5));
  EXPECT_EQ(server.PumpOnce(), 1u);  // The HELLO that ended the wait.
}

TEST(StreamHullServerWaitTest, SessionsAtTheBoundAreLeftOutOfTheWait) {
  // max_pending_per_session = 0 keeps the session at its bound, so the
  // pump never reads its queued HELLO. Were the session polled, those
  // bytes would end every wait at once and the pump loop would spin.
  ServerOptions options = SmallServerOptions();
  options.max_pending_per_session = 0;
  StreamHullServer server(options);
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  std::unique_ptr<UnixSocketTransport> client = AttachSocket(&server);
  ASSERT_TRUE(client->Send(EncodeSessionFrame(Hello())).ok());
  const auto start = std::chrono::steady_clock::now();
  server.WaitForWork(50);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(40));
  EXPECT_EQ(server.PumpOnce(), 0u);
}

TEST(StreamHullServerWaitTest, ASessionAtTheBoundMakesTheWaitAPlainTimeout) {
  // Session a holds its one pending slot: its strand is stuck sending
  // OPEN_OK into a full socket buffer. Session b is below the bound, and
  // its HELLO arrives 20 ms into the wait, yet the wait runs its course.
  ServerOptions options = SmallServerOptions();
  options.max_pending_per_session = 1;
  StreamHullServer server(options);
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  int a_fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, a_fds), 0);
  server.AttachSession(std::make_unique<UnixSocketTransport>(a_fds[1]));
  auto a = std::make_unique<UnixSocketTransport>(a_fds[0]);
  ASSERT_TRUE(a->Send(EncodeSessionFrame(Hello())).ok());
  ASSERT_EQ(server.PumpOnce(), 1u);  // HELLO_OK is sent from the pump.
  const std::string filler(65536, '\0');
  while (::send(a_fds[1], filler.data(), filler.size(), MSG_NOSIGNAL) > 0) {
  }
  SessionMessage open;
  open.type = SessionMessageType::kOpen;
  open.stream = "s0";
  ASSERT_TRUE(a->Send(EncodeSessionFrame(open)).ok());
  ASSERT_EQ(server.PumpOnce(), 1u);

  std::unique_ptr<UnixSocketTransport> b = AttachSocket(&server);
  const auto start = std::chrono::steady_clock::now();
  std::thread writer([&b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(b->Send(EncodeSessionFrame(Hello())).ok());
  });
  server.WaitForWork(300);
  const auto waited = std::chrono::steady_clock::now() - start;
  writer.join();
  EXPECT_GE(waited, std::chrono::milliseconds(250));
  EXPECT_EQ(server.PumpOnce(), 1u);  // b's HELLO; a is still at the bound.
  a.reset();  // The stuck send fails, and the strand finishes.
  server.Flush();
}

TEST(StreamHullServerWaitTest, PumpThreadServesASocketClient) {
  StreamHullServer server(SmallServerOptions());
  ASSERT_TRUE(server.AddTenant(kTenant, kToken).ok());
  SocketClient c{AttachSocket(&server), FrameDecoder()};
  uint64_t generation = 0;
  const std::string data = DataBurst(1, &generation);
  {
    PumpThread pump(&server);
    SessionMessage reply;
    ASSERT_TRUE(c.Request(EncodeSessionFrame(Hello()), &reply));
    ASSERT_EQ(reply.type, SessionMessageType::kHelloOk);

    SessionMessage open;
    open.type = SessionMessageType::kOpen;
    open.stream = "s0";
    ASSERT_TRUE(c.Request(EncodeSessionFrame(open), &reply));
    ASSERT_EQ(reply.type, SessionMessageType::kOpenOk);

    ASSERT_TRUE(c.Request(data, &reply));
    ASSERT_EQ(reply.type, SessionMessageType::kAck);
    EXPECT_EQ(reply.generation, generation);

    SessionMessage query;
    query.type = SessionMessageType::kQuery;
    query.query = ServerQueryKind::kDiameter;
    query.stream = "s0";
    ASSERT_TRUE(c.Request(EncodeSessionFrame(query), &reply));
    ASSERT_EQ(reply.type, SessionMessageType::kQueryResult);
    EXPECT_GT(reply.hi, 0.0);
    EXPECT_LE(reply.lo, reply.hi);
  }
  TenantMetrics tm;
  ASSERT_TRUE(server.Metrics(kTenant, &tm).ok());
  EXPECT_EQ(tm.full_frames, 1u);
  EXPECT_EQ(tm.queries, 1u);
}

}  // namespace
}  // namespace streamhull
