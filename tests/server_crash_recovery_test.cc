// Crash-recovery and degradation tests for streamhulld: every
// snapshot.save.* crash point followed by a restart must boot a server
// whose certified intervals — after the producer's ordinary
// reconnect-and-resync — bracket brute-force truth; corrupt snapshot
// files (every truncation length, single bit flips) are quarantined and
// the tenant boots with what survived; SaveSnapshots is best-effort with
// aggregated failures; ProducerClient redials through transport faults
// and shedding with deterministic backoff; and the server sheds sessions
// and streams past its configured bounds with ResourceExhausted ERRORs.

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/checked_file.h"
#include "core/hull_engine.h"
#include "core/snapshot.h"
#include "geom/convex_polygon.h"
#include "queries/certified.h"
#include "queries/queries.h"
#include "runtime/failpoint.h"
#include "server/producer_client.h"
#include "server/streamhulld.h"
#include "server/transport.h"
#include "server/wire.h"

namespace streamhull {
namespace {

namespace fs = std::filesystem;

constexpr const char* kTenant = "acme";
constexpr const char* kToken = "acme-token";
constexpr double kEps = 1e-9;

ServerOptions SmallServerOptions(const std::string& snapshot_dir = "") {
  ServerOptions o;
  o.engine.hull.r = 8;
  o.num_threads = 2;
  o.snapshot_dir = snapshot_dir;
  return o;
}

EngineOptions SmallEngineOptions() {
  EngineOptions o;
  o.hull.r = 8;
  return o;
}

// A hand-rolled session for the shedding tests (ProducerClient would
// reconnect right past the behavior under test).
struct RawClient {
  std::unique_ptr<PipeTransport> link;
  FrameDecoder replies;

  void Hello(StreamHullServer* server) {
    auto [client_end, server_end] = PipeTransport::CreatePair();
    link = std::move(client_end);
    server->AttachSession(std::move(server_end));
    SessionMessage hello;
    hello.type = SessionMessageType::kHello;
    hello.version = kServerProtocolVersion;
    hello.token = kToken;
    // May fail when the server shed the connection on attach; the shed
    // ERROR frame is still queued for Await to read.
    (void)link->Send(EncodeSessionFrame(hello));
  }

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

// One producer on the library client, dialing whatever *server currently
// points at (so a test can swap the instance to model a restart).
struct Node {
  std::unique_ptr<HullEngine> engine;
  std::unique_ptr<ProducerClient> client;
  std::vector<Point2> truth;
  uint64_t now_ms = 0;

  void Init(std::unique_ptr<StreamHullServer>* server,
            const std::string& stream) {
    engine = MakeEngine(EngineKind::kAdaptive, SmallEngineOptions());
    ProducerClientOptions options;
    options.token = kToken;
    options.stream = stream;
    options.sender.max_in_flight = 4;
    options.backoff.initial_delay_ms = 100;
    options.backoff.max_delay_ms = 1000;
    client = std::make_unique<ProducerClient>(
        engine.get(),
        [server](std::unique_ptr<Transport>* out) {
          auto [client_end, server_end] = PipeTransport::CreatePair();
          (*server)->AttachSession(std::move(server_end));
          *out = std::move(client_end);
          return Status::OK();
        },
        options);
  }

  void Feed(Rng* rng, int n) {
    for (int i = 0; i < n; ++i) {
      const Point2 pt{4.0 * rng->Normal(), 3.0 * rng->Normal()};
      engine->Insert(pt);
      truth.push_back(pt);
    }
  }

  bool PumpUntil(StreamHullServer* server,
                 const std::function<bool()>& done, int cycles = 200) {
    for (int c = 0; c < cycles; ++c) {
      now_ms += 250;
      (void)client->Pump(now_ms);
      server->PumpOnce();
      server->Flush();
      (void)client->Pump(now_ms);
      if (done()) return true;
    }
    return false;
  }

  // Ships one frame and waits for its ack.
  bool SendAcked(StreamHullServer* server) {
    if (!PumpUntil(server, [&] { return client->ReadyToSend(); })) {
      return false;
    }
    const uint64_t acks = client->stats().acks;
    if (!client->SendUpdate(now_ms).ok()) return false;
    return PumpUntil(server, [&] { return client->stats().acks > acks; });
  }
};

// Certified diameter + eight directional extents of the server-held view
// must bracket brute force over every point the node ever observed.
void ExpectBracketsTruth(StreamHullServer* server, const std::string& stream,
                         const std::vector<Point2>& truth) {
  SummaryView view;
  ASSERT_TRUE(server->View(kTenant, stream, &view).ok());
  const ConvexPolygon brute = ConvexPolygon::HullOf(truth);
  const double true_diameter = Diameter(brute).value;
  const CertifiedScalar diam = CertifiedDiameter(view);
  EXPECT_LE(diam.value.lo, true_diameter + kEps);
  EXPECT_LE(true_diameter, diam.value.hi + kEps);
  for (int k = 0; k < 8; ++k) {
    const double angle = 0.25 * 3.14159265358979323846 * k;
    const Point2 dir{std::cos(angle), std::sin(angle)};
    const double true_extent = DirectionalExtent(brute, dir);
    const Interval extent = CertifiedExtent(view, dir);
    EXPECT_LE(extent.lo, true_extent + kEps) << "direction " << k;
    EXPECT_LE(true_extent, extent.hi + kEps) << "direction " << k;
  }
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Instance().DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("crash_recovery_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    Failpoints::Instance().DisarmAll();
    fs::remove_all(dir_);
  }

  fs::path TenantDir() const { return dir_ / kTenant; }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Crash at every save failpoint; restart; reconnect; certified truth.

class SaveCrashTest : public CrashRecoveryTest,
                      public ::testing::WithParamInterface<
                          std::pair<const char*, const char*>> {};

TEST_P(SaveCrashTest, RestartAfterCrashServesCertifiedTruth) {
  const auto [failpoint, spec] = GetParam();
  auto server =
      std::make_unique<StreamHullServer>(SmallServerOptions(dir_.string()));
  ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok());

  Node node;
  node.Init(&server, "s0");
  Rng rng(7);
  node.Feed(&rng, 400);
  ASSERT_TRUE(node.SendAcked(server.get()));
  // A clean baseline snapshot, then newer state the crashed save may or
  // may not have persisted — recovery must cope with either.
  ASSERT_TRUE(server->SaveSnapshots().ok());
  node.Feed(&rng, 400);
  ASSERT_TRUE(node.SendAcked(server.get()));

  ASSERT_TRUE(Failpoints::Instance().Arm(failpoint, spec).ok());
  EXPECT_FALSE(server->SaveSnapshots().ok());
  EXPECT_GE(server->metrics().snapshot_save_failures, 1u);
  Failpoints::Instance().DisarmAll();

  // The "crash": the process dies, a new server boots from the disk.
  server = std::make_unique<StreamHullServer>(SmallServerOptions(
      dir_.string()));
  ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok());
  TenantMetrics tm;
  ASSERT_TRUE(server->Metrics(kTenant, &tm).ok());
  // Every crash point leaves a complete previous-or-newer snapshot,
  // never a torn one: the stream restores, nothing is quarantined.
  EXPECT_EQ(tm.restored_streams, 1u);
  EXPECT_EQ(tm.quarantined_snapshots, 0u);

  // The producer's ordinary reconnect: redial, learn the held generation
  // from OPEN_OK, resync with a full frame.
  node.client->Disconnect(node.now_ms);
  ASSERT_TRUE(node.SendAcked(server.get()));
  ExpectBracketsTruth(server.get(), "s0", node.truth);
}

INSTANTIATE_TEST_SUITE_P(
    AllSaveCrashPoints, SaveCrashTest,
    ::testing::Values(
        std::make_pair("snapshot.save.before_write", "1*error(io)"),
        std::make_pair("snapshot.save.partial_write", "1*short(24)"),
        std::make_pair("snapshot.save.fsync", "1*error(io)"),
        std::make_pair("snapshot.save.before_rename", "1*error(io)"),
        std::make_pair("snapshot.save.dir_fsync", "1*error(io)")));

// ---------------------------------------------------------------------------
// Quarantine: corrupt snapshot files cost the stream, never the tenant.

TEST_F(CrashRecoveryTest, GarbageSnapshotIsQuarantinedNotFatal) {
  // The regression this layer exists for: an undecodable snapshot used to
  // abort AddTenant entirely, taking every healthy stream down with it.
  fs::create_directories(TenantDir());
  {
    std::ofstream out(TenantDir() / "bad.shl2", std::ios::binary);
    out << "complete garbage, not a snapshot at all";
  }
  // A healthy neighbor that must survive the bad file.
  auto engine = MakeEngine(EngineKind::kAdaptive, SmallEngineOptions());
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    engine->Insert(Point2{rng.Normal(), rng.Normal()});
  }
  ASSERT_TRUE(WriteFileAtomicChecked((TenantDir() / "good.shl2").string(),
                                     EncodeSummaryView(*engine))
                  .ok());

  auto server =
      std::make_unique<StreamHullServer>(SmallServerOptions(dir_.string()));
  ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok());
  TenantMetrics tm;
  ASSERT_TRUE(server->Metrics(kTenant, &tm).ok());
  EXPECT_EQ(tm.restored_streams, 1u);
  EXPECT_EQ(tm.quarantined_snapshots, 1u);
  EXPECT_TRUE(fs::exists(TenantDir() / "bad.shl2.corrupt"));
  EXPECT_FALSE(fs::exists(TenantDir() / "bad.shl2"));
  SummaryView view;
  EXPECT_TRUE(server->View(kTenant, "good", &view).ok());
  EXPECT_FALSE(server->View(kTenant, "bad", &view).ok());
  // The tenant line reports the quarantine, and the server line counts it
  // as a degradation.
  EXPECT_NE(server->MetricsText().find("quarantined=1"), std::string::npos);
  EXPECT_NE(server->MetricsText().find("health=degraded"), std::string::npos);
}

TEST_F(CrashRecoveryTest, LegacyFooterlessSnapshotStillLoads) {
  // Snapshots written before the checksum footer existed are raw encoded
  // views; they must keep loading (and be rewritten checksummed on the
  // next save).
  auto engine = MakeEngine(EngineKind::kAdaptive, SmallEngineOptions());
  Rng rng(4);
  std::vector<Point2> truth;
  for (int i = 0; i < 300; ++i) {
    const Point2 pt{rng.Normal(), rng.Normal()};
    engine->Insert(pt);
    truth.push_back(pt);
  }
  fs::create_directories(TenantDir());
  {
    std::ofstream out(TenantDir() / "legacy.shl2", std::ios::binary);
    const std::string bytes = EncodeSummaryView(*engine);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto server =
      std::make_unique<StreamHullServer>(SmallServerOptions(dir_.string()));
  ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok());
  TenantMetrics tm;
  ASSERT_TRUE(server->Metrics(kTenant, &tm).ok());
  EXPECT_EQ(tm.restored_streams, 1u);
  EXPECT_EQ(tm.quarantined_snapshots, 0u);
  ExpectBracketsTruth(server.get(), "legacy", truth);
  // The next save upgrades the file in place to the checksummed format.
  ASSERT_TRUE(server->SaveSnapshots().ok());
  std::string payload;
  EXPECT_TRUE(
      ReadFileChecked((TenantDir() / "legacy.shl2").string(), &payload)
          .ok());
}

TEST_F(CrashRecoveryTest, EveryTruncationBootsCleanAndNeverLies) {
  auto engine = MakeEngine(EngineKind::kAdaptive, SmallEngineOptions());
  Rng rng(5);
  std::vector<Point2> truth;
  for (int i = 0; i < 150; ++i) {
    const Point2 pt{rng.Normal(), rng.Normal()};
    engine->Insert(pt);
    truth.push_back(pt);
  }
  fs::create_directories(TenantDir());
  const std::string file = (TenantDir() / "s.shl2").string();
  ASSERT_TRUE(WriteFileAtomicChecked(file, EncodeSummaryView(*engine)).ok());
  std::ifstream in(file, std::ios::binary);
  const std::string full((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();

  const ConvexPolygon brute = ConvexPolygon::HullOf(truth);
  const double true_diameter = Diameter(brute).value;
  for (size_t len = 0; len < full.size(); ++len) {
    fs::remove(file + ".corrupt");
    {
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(len));
    }
    auto server = std::make_unique<StreamHullServer>(
        SmallServerOptions(dir_.string()));
    // Whatever the truncation did, boot succeeds...
    ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok()) << "len " << len;
    SummaryView view;
    if (server->View(kTenant, "s", &view).ok()) {
      // ...and a view that did load is never wrong — only the exact
      // payload-length cut can load (it is the legacy footer-less form).
      const CertifiedScalar diam = CertifiedDiameter(view);
      EXPECT_LE(diam.value.lo, true_diameter + kEps) << "len " << len;
      EXPECT_LE(true_diameter, diam.value.hi + kEps) << "len " << len;
    } else {
      TenantMetrics tm;
      ASSERT_TRUE(server->Metrics(kTenant, &tm).ok());
      EXPECT_EQ(tm.quarantined_snapshots, 1u) << "len " << len;
    }
  }
}

TEST_F(CrashRecoveryTest, SingleBitFlipsAreQuarantinedAtBoot) {
  auto engine = MakeEngine(EngineKind::kAdaptive, SmallEngineOptions());
  Rng rng(6);
  for (int i = 0; i < 150; ++i) {
    engine->Insert(Point2{rng.Normal(), rng.Normal()});
  }
  fs::create_directories(TenantDir());
  const std::string file = (TenantDir() / "s.shl2").string();
  ASSERT_TRUE(WriteFileAtomicChecked(file, EncodeSummaryView(*engine)).ok());
  std::ifstream in(file, std::ios::binary);
  const std::string full((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();

  for (size_t i = 0; i < full.size(); i += 7) {  // Every 7th byte: runtime.
    fs::remove(file + ".corrupt");
    std::string flipped = full;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x04);
    {
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      out.write(flipped.data(),
                static_cast<std::streamsize>(flipped.size()));
    }
    auto server = std::make_unique<StreamHullServer>(
        SmallServerOptions(dir_.string()));
    ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok()) << "byte " << i;
    TenantMetrics tm;
    ASSERT_TRUE(server->Metrics(kTenant, &tm).ok());
    EXPECT_EQ(tm.quarantined_snapshots, 1u) << "byte " << i;
    EXPECT_EQ(tm.restored_streams, 0u) << "byte " << i;
    EXPECT_TRUE(fs::exists(file + ".corrupt")) << "byte " << i;
  }
}

TEST_F(CrashRecoveryTest, QuarantinedStreamHealsOnReconnect) {
  auto server =
      std::make_unique<StreamHullServer>(SmallServerOptions(dir_.string()));
  ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok());
  Node node;
  node.Init(&server, "s0");
  Rng rng(8);
  node.Feed(&rng, 300);
  ASSERT_TRUE(node.SendAcked(server.get()));
  ASSERT_TRUE(server->SaveSnapshots().ok());

  // Corrupt the snapshot behind the server's back, then "crash".
  const std::string file = (TenantDir() / "s0.shl2").string();
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(10);
    f.put('\xFF');
  }
  server = std::make_unique<StreamHullServer>(SmallServerOptions(
      dir_.string()));
  ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok());
  TenantMetrics tm;
  ASSERT_TRUE(server->Metrics(kTenant, &tm).ok());
  EXPECT_EQ(tm.quarantined_snapshots, 1u);

  // The producer reconnects: OPEN_OK reports generation 0 (nothing
  // restored), the client force-resyncs, and certified truth is back.
  node.client->Disconnect(node.now_ms);
  ASSERT_TRUE(node.SendAcked(server.get()));
  ExpectBracketsTruth(server.get(), "s0", node.truth);
}

// ---------------------------------------------------------------------------
// Best-effort SaveSnapshots.

TEST_F(CrashRecoveryTest, SaveIsBestEffortAcrossStreams) {
  auto server =
      std::make_unique<StreamHullServer>(SmallServerOptions(dir_.string()));
  ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok());
  Node a, b;
  a.Init(&server, "sa");
  b.Init(&server, "sb");
  Rng rng(9);
  a.Feed(&rng, 200);
  b.Feed(&rng, 200);
  ASSERT_TRUE(a.SendAcked(server.get()));
  ASSERT_TRUE(b.SendAcked(server.get()));

  // Exactly one of the two stream writes dies; the other must land.
  ASSERT_TRUE(Failpoints::Instance()
                  .Arm("snapshot.save.before_write", "1*error(io)")
                  .ok());
  const Status st = server->SaveSnapshots();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("1 snapshot write(s) failed"),
            std::string::npos);
  EXPECT_EQ(server->metrics().snapshot_save_failures, 1u);
  EXPECT_NE(server->MetricsText().find("snapshot_save_failures=1"),
            std::string::npos);
  EXPECT_NE(server->MetricsText().find("health=degraded"), std::string::npos);
  int written = 0;
  written += fs::exists(TenantDir() / "sa.shl2") ? 1 : 0;
  written += fs::exists(TenantDir() / "sb.shl2") ? 1 : 0;
  EXPECT_EQ(written, 1);

  // The next save (no fault) completes the pair.
  ASSERT_TRUE(server->SaveSnapshots().ok());
  EXPECT_TRUE(fs::exists(TenantDir() / "sa.shl2"));
  EXPECT_TRUE(fs::exists(TenantDir() / "sb.shl2"));
}

TEST_F(CrashRecoveryTest, SaveWithoutSnapshotDirIsFailedPrecondition) {
  auto server = std::make_unique<StreamHullServer>(SmallServerOptions());
  ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok());
  EXPECT_EQ(server->SaveSnapshots().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// ProducerClient: backoff, reconnect storms, shed handling.

TEST_F(CrashRecoveryTest, BackoffIsDeterministicGrowsAndCaps) {
  BackoffPolicy policy;
  policy.initial_delay_ms = 100;
  policy.max_delay_ms = 2000;
  policy.multiplier = 2.0;
  policy.jitter = 0.25;
  policy.seed = 42;
  for (uint64_t attempt = 0; attempt < 10; ++attempt) {
    const uint64_t d = BackoffDelayMs(policy, attempt);
    EXPECT_EQ(d, BackoffDelayMs(policy, attempt));  // Deterministic.
    double base = 100.0;
    for (uint64_t k = 0; k < attempt && base < 2000.0; ++k) base *= 2.0;
    if (base > 2000.0) base = 2000.0;
    EXPECT_LE(d, static_cast<uint64_t>(base));
    EXPECT_GE(d, static_cast<uint64_t>(base * 0.75) - 1);
  }
  // Distinct seeds decorrelate: two producers bounced together do not
  // redial in lockstep forever.
  BackoffPolicy other = policy;
  other.seed = 43;
  bool any_different = false;
  for (uint64_t attempt = 0; attempt < 10; ++attempt) {
    any_different |=
        BackoffDelayMs(policy, attempt) != BackoffDelayMs(other, attempt);
  }
  EXPECT_TRUE(any_different);
  // Zero jitter pins the delay to the base exactly.
  policy.jitter = 0.0;
  EXPECT_EQ(BackoffDelayMs(policy, 0), 100u);
  EXPECT_EQ(BackoffDelayMs(policy, 1), 200u);
  EXPECT_EQ(BackoffDelayMs(policy, 5), 2000u);
}

TEST_F(CrashRecoveryTest, ClientRidesOutTransportFaults) {
  auto server = std::make_unique<StreamHullServer>(SmallServerOptions());
  ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok());
  Node node;
  node.Init(&server, "s0");
  Rng rng(10);
  node.Feed(&rng, 100);
  ASSERT_TRUE(node.SendAcked(server.get()));

  // Injected send failures on the live session: each costs the client
  // its connection; the backoff redial and the OPEN_OK/resync machinery
  // must heal every one.
  ASSERT_TRUE(Failpoints::Instance()
                  .Arm("transport.send.ioerror", "3*every(4)*error(io)")
                  .ok());
  for (int round = 0; round < 12; ++round) {
    node.Feed(&rng, 50);
    node.PumpUntil(server.get(), [&] { return node.client->ReadyToSend(); },
                   40);
    (void)node.client->SendUpdate(node.now_ms);
  }
  // All three injected faults fired somewhere on the wire (the schedule
  // is shared across every transport, so a fault may cost a client DATA
  // send, a server ACK, or a HELLO — each heals differently).
  EXPECT_EQ(Failpoints::Instance().fires("transport.send.ioerror"), 3u);
  Failpoints::Instance().DisarmAll();

  node.client->ForceResync();
  ASSERT_TRUE(node.SendAcked(server.get()));
  ExpectBracketsTruth(server.get(), "s0", node.truth);
}

TEST_F(CrashRecoveryTest, BaselineLossFailpointForcesResync) {
  auto engine = MakeEngine(EngineKind::kAdaptive, SmallEngineOptions());
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    engine->Insert(Point2{rng.Normal(), rng.Normal()});
  }
  DeltaSender sender(engine.get());
  DeltaSender::Frame frame;
  ASSERT_TRUE(sender.NextFrame(&frame).ok());  // First contact: full.
  EXPECT_FALSE(frame.is_delta);
  for (int i = 0; i < 50; ++i) {
    engine->Insert(Point2{rng.Normal(), rng.Normal()});
  }
  ASSERT_TRUE(Failpoints::Instance()
                  .Arm("delta_sender.baseline_loss", "1*trigger")
                  .ok());
  ASSERT_TRUE(sender.NextFrame(&frame).ok());
  EXPECT_FALSE(frame.is_delta);  // The injected loss forced a full frame.
  EXPECT_EQ(sender.stats().resyncs, 1u);
  for (int i = 0; i < 50; ++i) {
    engine->Insert(Point2{rng.Normal(), rng.Normal()});
  }
  ASSERT_TRUE(sender.NextFrame(&frame).ok());
  EXPECT_TRUE(frame.is_delta);  // One-shot: the chain is back.
}

// ---------------------------------------------------------------------------
// Server-side shedding.

TEST_F(CrashRecoveryTest, SessionsBeyondMaxAreShedWithResourceExhausted) {
  ServerOptions options = SmallServerOptions();
  options.max_sessions = 2;
  auto server = std::make_unique<StreamHullServer>(options);
  ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok());

  RawClient a, b, c;
  a.Hello(server.get());
  b.Hello(server.get());
  SessionMessage reply;
  ASSERT_TRUE(a.Await(server.get(), &reply));
  EXPECT_EQ(reply.type, SessionMessageType::kHelloOk);
  ASSERT_TRUE(b.Await(server.get(), &reply));
  EXPECT_EQ(reply.type, SessionMessageType::kHelloOk);

  // The third connection is refused before any pump: one ERROR frame,
  // then the transport is closed.
  c.Hello(server.get());
  ASSERT_TRUE(c.Await(server.get(), &reply));
  EXPECT_EQ(reply.type, SessionMessageType::kError);
  EXPECT_EQ(static_cast<StatusCode>(reply.code),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(server->metrics().shed_sessions, 1u);
  EXPECT_EQ(server->session_count(), 2u);
  EXPECT_NE(server->MetricsText().find("health=shedding"),
            std::string::npos);
  EXPECT_NE(server->MetricsText().find("shed_sessions=1"),
            std::string::npos);

  // A slot frees up once a session says BYE; the next dial is accepted.
  SessionMessage bye;
  bye.type = SessionMessageType::kBye;
  ASSERT_TRUE(a.link->Send(EncodeSessionFrame(bye)).ok());
  server->PumpOnce();
  server->Flush();
  RawClient d;
  d.Hello(server.get());
  ASSERT_TRUE(d.Await(server.get(), &reply));
  EXPECT_EQ(reply.type, SessionMessageType::kHelloOk);
}

TEST_F(CrashRecoveryTest, StreamsBeyondTenantMaxAreShedSessionSurvives) {
  ServerOptions options = SmallServerOptions();
  options.max_streams_per_tenant = 1;
  auto server = std::make_unique<StreamHullServer>(options);
  ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok());

  RawClient c;
  c.Hello(server.get());
  SessionMessage reply;
  ASSERT_TRUE(c.Await(server.get(), &reply));
  ASSERT_EQ(reply.type, SessionMessageType::kHelloOk);

  SessionMessage open;
  open.type = SessionMessageType::kOpen;
  open.stream = "first";
  ASSERT_TRUE(c.link->Send(EncodeSessionFrame(open)).ok());
  ASSERT_TRUE(c.Await(server.get(), &reply));
  EXPECT_EQ(reply.type, SessionMessageType::kOpenOk);

  open.stream = "second";
  ASSERT_TRUE(c.link->Send(EncodeSessionFrame(open)).ok());
  ASSERT_TRUE(c.Await(server.get(), &reply));
  EXPECT_EQ(reply.type, SessionMessageType::kError);
  EXPECT_EQ(static_cast<StatusCode>(reply.code),
            StatusCode::kResourceExhausted);
  TenantMetrics tm;
  ASSERT_TRUE(server->Metrics(kTenant, &tm).ok());
  EXPECT_EQ(tm.shed_streams, 1u);
  EXPECT_EQ(tm.streams, 1u);

  // The session survives the refusal: re-opening the existing stream
  // still works (idempotent OPEN is not a new stream).
  open.stream = "first";
  ASSERT_TRUE(c.link->Send(EncodeSessionFrame(open)).ok());
  ASSERT_TRUE(c.Await(server.get(), &reply));
  EXPECT_EQ(reply.type, SessionMessageType::kOpenOk);
  EXPECT_NE(server->MetricsText().find("health=shedding"),
            std::string::npos);
}

TEST_F(CrashRecoveryTest, ShedClientCountsItAndRetriesOnBackoff) {
  ServerOptions options = SmallServerOptions();
  options.max_sessions = 1;
  auto server = std::make_unique<StreamHullServer>(options);
  ASSERT_TRUE(server->AddTenant(kTenant, kToken).ok());

  RawClient occupant;
  occupant.Hello(server.get());
  SessionMessage reply;
  ASSERT_TRUE(occupant.Await(server.get(), &reply));

  Node node;
  node.Init(&server, "s0");
  // The dial lands on a full server: the ERROR(resource) frame is
  // counted as shed (not a server error) and a redial is scheduled.
  node.PumpUntil(server.get(),
                 [&] { return node.client->stats().shed > 0; }, 40);
  EXPECT_GE(node.client->stats().shed, 1u);
  EXPECT_EQ(node.client->stats().server_errors, 0u);
  EXPECT_FALSE(node.client->opened());

  // The occupant leaves; the very next backoff expiry gets the slot.
  SessionMessage bye;
  bye.type = SessionMessageType::kBye;
  ASSERT_TRUE(occupant.link->Send(EncodeSessionFrame(bye)).ok());
  EXPECT_TRUE(node.PumpUntil(server.get(),
                             [&] { return node.client->opened(); }));
}

}  // namespace
}  // namespace streamhull
