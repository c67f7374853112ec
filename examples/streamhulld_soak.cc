// streamhulld soak: the server subsystem end-to-end, under churn.
//
// N producers stream points into private engines and uplink v3 delta
// frames to a StreamHullServer over in-process pipe transports, each
// through a ProducerClient — the library's resilient session client
// (HELLO/OPEN handshake, delta window, backoff-with-jitter redial). The
// run injects every failure the protocol is built to survive:
//
//   * lost frames            (pipe-level drop injection -> sink NAK -> resync)
//   * periodic forced full frames
//   * a producer disconnect (its client redials on its backoff schedule)
//   * a producer *crash*: its engine and raw points are gone; it rebuilds
//     a live engine from its last self-checkpoint via MakeEngineFromView
//     and resumes the delta chain against the server's held view
//   * a full server restart: the old instance persists every held view
//     (checksummed, written atomically), a new instance restores them,
//     and every producer redials — jitter spreads the reconnect stampede
//   * a *chaos phase* (on by default): failpoints inject transport
//     IOErrors and delta baseline losses mid-run, and one SaveSnapshots
//     is made to fail at its before_rename crash point
//   * wire-protocol certified queries from an analyst session throughout
//
// The run ends with a differential check: after a final resync frame from
// every producer, each stream's server-side certified intervals (diameter
// and eight directional extents) must bracket the brute-force value over
// *every point that producer ever observed* — including the points the
// crashed producer forgot and only its restored slack floors still cover.
// Exit status 0 iff everything held; CI smoke-runs a short configuration.
//
//   streamhulld_soak [producers] [rounds] [points_per_round] [chaos 0|1]
//
// Defaults: 5 producers, 36 rounds, 250 points/round, chaos on.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "streamhull.h"

using namespace streamhull;

namespace {

// One field node: a private engine plus the library client that uplinks
// it. `raw` aims at the client's current pipe end for drop injection;
// `carried` accumulates the stats of pre-crash client generations.
struct Producer {
  int id = 0;
  std::string stream;
  EngineKind kind = EngineKind::kAdaptive;
  std::unique_ptr<HullEngine> engine;
  std::unique_ptr<ProducerClient> client;
  PipeTransport* raw = nullptr;
  std::string checkpoint;     // Last self-checkpoint (full v2 bytes).
  std::vector<Point2> truth;  // Every point ever observed: ground truth.
  ProducerClientStats carried;
  uint64_t dropped = 0;
};

struct AnalystClient {
  std::unique_ptr<PipeTransport> link;
  FrameDecoder replies;
  bool helloed = false;
  uint64_t results = 0;
};

constexpr const char* kTenant = "field";
constexpr const char* kToken = "field-token";

ProducerClientStats TotalStats(const Producer& p) {
  ProducerClientStats t = p.carried;
  if (p.client != nullptr) {
    const ProducerClientStats& s = p.client->stats();
    t.connects += s.connects;
    t.connect_failures += s.connect_failures;
    t.reconnects += s.reconnects;
    t.acks += s.acks;
    t.naks += s.naks;
    t.server_errors += s.server_errors;
    t.shed += s.shed;
    t.frames_sent += s.frames_sent;
    t.send_failures += s.send_failures;
  }
  return t;
}

// Builds p's client against whatever server *server currently points at —
// the factory re-reads it on every dial, so clients survive the restart.
void MakeClient(std::unique_ptr<StreamHullServer>* server, Producer* p) {
  ProducerClientOptions options;
  options.token = kToken;
  options.stream = p->stream;
  options.sender.max_in_flight = 4;
  options.backoff.initial_delay_ms = 1500;
  options.backoff.max_delay_ms = 4000;
  options.backoff.seed = static_cast<uint64_t>(p->id);
  p->client = std::make_unique<ProducerClient>(
      p->engine.get(),
      [server, p](std::unique_ptr<Transport>* out) {
        auto [client_end, server_end] = PipeTransport::CreatePair();
        p->raw = client_end.get();
        (*server)->AttachSession(std::move(server_end));
        *out = std::move(client_end);
        return Status::OK();
      },
      options);
}

void ConnectAnalyst(StreamHullServer* server, AnalystClient* a) {
  auto [client_end, server_end] = PipeTransport::CreatePair();
  a->link = std::move(client_end);
  a->replies = FrameDecoder();
  a->helloed = false;
  server->AttachSession(std::move(server_end));
  SessionMessage hello;
  hello.type = SessionMessageType::kHello;
  hello.version = kServerProtocolVersion;
  hello.token = kToken;
  (void)a->link->Send(EncodeSessionFrame(hello));
}

void DrainAnalyst(AnalystClient* a) {
  std::string bytes;
  (void)a->link->Recv(&bytes);
  a->replies.Feed(bytes);
  for (;;) {
    std::string frame;
    bool got = false;
    if (!a->replies.Next(&frame, &got).ok()) return;
    if (!got) break;
    SessionMessage msg;
    if (!DecodeSessionMessage(frame, &msg).ok()) return;
    if (msg.type == SessionMessageType::kHelloOk) a->helloed = true;
    if (msg.type == SessionMessageType::kQueryResult) ++a->results;
  }
}

/// A few pump+drain cycles so handshakes and pending frames settle. Each
/// cycle advances the logical clock, so backoff schedules make progress.
void Settle(StreamHullServer* server, std::vector<Producer>* producers,
            AnalystClient* analyst, uint64_t* now_ms, int cycles = 6) {
  for (int c = 0; c < cycles; ++c) {
    *now_ms += 100;
    server->PumpOnce();
    server->Flush();
    for (Producer& p : *producers) {
      if (p.client != nullptr) (void)p.client->Pump(*now_ms);
    }
    if (analyst->link != nullptr) DrainAnalyst(analyst);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int kProducers = argc > 1 ? std::atoi(argv[1]) : 5;
  const int kRounds = argc > 2 ? std::atoi(argv[2]) : 36;
  const int kPointsPerRound = argc > 3 ? std::atoi(argv[3]) : 250;
  const bool kChaos = argc > 4 ? std::atoi(argv[4]) != 0 : true;

  const std::filesystem::path snapshot_dir =
      std::filesystem::temp_directory_path() /
      ("streamhulld_soak_" + std::to_string(::getpid()));
  std::filesystem::remove_all(snapshot_dir);

  ServerOptions server_options;
  server_options.engine.hull.r = 16;
  server_options.num_threads = 4;
  server_options.max_pending_per_session = 8;
  server_options.snapshot_dir = snapshot_dir.string();

  EngineOptions engine_options;
  engine_options.hull.r = 16;

  auto server = std::make_unique<StreamHullServer>(server_options);
  if (Status st = server->AddTenant(kTenant, kToken); !st.ok()) {
    std::printf("AddTenant: %s\n", st.ToString().c_str());
    return 1;
  }

  uint64_t now_ms = 0;
  std::vector<Producer> producers(kProducers);
  Rng rng(2024);
  for (int i = 0; i < kProducers; ++i) {
    Producer& p = producers[i];
    p.id = i;
    p.stream = "s" + std::to_string(i);
    p.kind = AllEngineKinds()[i % AllEngineKinds().size()];
    p.engine = MakeEngine(p.kind, engine_options);
    MakeClient(&server, &p);
  }
  AnalystClient analyst;
  ConnectAnalyst(server.get(), &analyst);
  Settle(server.get(), &producers, &analyst, &now_ms);

  const int kDisconnectRound = kRounds / 3;
  const int kCrashRound = kRounds / 2;
  const int kRestartRound = 2 * kRounds / 3;
  const int kChaosStart = kRestartRound + 3;
  const int kChaosEnd = kChaosStart + (kRounds - kChaosStart) / 2;
  uint64_t frames_lost = 0;
  bool save_failure_seen = false;

  std::printf("== soak: %d producers x %d rounds x %d points/round%s ==\n",
              kProducers, kRounds, kPointsPerRound,
              kChaos ? ", chaos on" : "");

  for (int round = 0; round < kRounds; ++round) {
    now_ms += 1000;

    // --- Session churn events.
    if (round == kDisconnectRound && kProducers > 1) {
      std::printf("round %d: producer 1 disconnects (redials on backoff)\n",
                  round);
      producers[1].client->Disconnect(now_ms);
    }
    if (round == kCrashRound && kProducers > 2) {
      // The crash: engine, client, connection, and every raw point are
      // gone. Only the last self-checkpoint survives; MakeEngineFromView
      // turns it back into a live engine whose frozen slack floors still
      // cover everything the dead engine had summarized away.
      Producer& p = producers[2];
      std::printf("round %d: producer 2 crashes; restoring from its %zu-byte"
                  " checkpoint\n", round, p.checkpoint.size());
      p.carried = TotalStats(p);
      p.client.reset();
      p.raw = nullptr;
      p.engine.reset();
      DecodedSummaryView view;
      if (Status st = DecodeSummaryView(p.checkpoint, &view); !st.ok()) {
        std::printf("checkpoint decode failed: %s\n", st.ToString().c_str());
        return 1;
      }
      std::unique_ptr<HullEngine> restored;
      if (Status st = MakeEngineFromView(view, engine_options, &restored);
          !st.ok()) {
        std::printf("restore failed: %s\n", st.ToString().c_str());
        return 1;
      }
      p.engine = std::move(restored);
      MakeClient(&server, &p);
      // The restored engine seeded the checkpoint as its wire baseline,
      // so the chain resumes at the checkpoint's generation; if the
      // server is past it, the NAK/OPEN_OK machinery resyncs as usual.
      p.client->Resume(view.generation);
      Settle(server.get(), &producers, &analyst, &now_ms);
    }
    if (round == kRestartRound) {
      std::printf("round %d: server restarts; %s\n", round,
                  "views persisted and restored from snapshots");
      server->PumpOnce();
      server->Flush();
      if (Status st = server->SaveSnapshots(); !st.ok()) {
        std::printf("SaveSnapshots: %s\n", st.ToString().c_str());
        return 1;
      }
      server = std::make_unique<StreamHullServer>(server_options);
      if (Status st = server->AddTenant(kTenant, kToken); !st.ok()) {
        std::printf("AddTenant after restart: %s\n", st.ToString().c_str());
        return 1;
      }
      // Every client redials through its factory (which re-reads the
      // server pointer) on its own jittered backoff — no stampede.
      for (Producer& p : producers) {
        if (p.client != nullptr) p.client->Disconnect(now_ms);
      }
      ConnectAnalyst(server.get(), &analyst);
      Settle(server.get(), &producers, &analyst, &now_ms);
    }

    // --- Chaos phase: deterministic fault injection on live sites.
    if (kChaos && round == kChaosStart) {
      std::printf("round %d: chaos on (transport IOErrors + baseline "
                  "losses)\n", round);
      Failpoints::Instance().Arm("transport.send.ioerror",
                                 "3*every(11)*error(io)");
      Failpoints::Instance().Arm("delta_sender.baseline_loss",
                                 "2*every(5)*trigger");
    }
    if (kChaos && round == kChaosStart + 1) {
      // A snapshot save that dies at its before_rename crash point: the
      // aggregate status reports it, the failure counter ticks, and the
      // previous on-disk snapshots are untouched.
      Failpoints::Instance().Arm("snapshot.save.before_rename",
                                 "1*error(io)");
      const Status st = server->SaveSnapshots();
      save_failure_seen =
          !st.ok() && server->metrics().snapshot_save_failures > 0;
      std::printf("round %d: injected snapshot save failure: %s\n", round,
                  st.ToString().c_str());
      Failpoints::Instance().Disarm("snapshot.save.before_rename");
    }
    if (kChaos && round == kChaosEnd) {
      Failpoints::Instance().DisarmAll();
      std::printf("round %d: chaos off (transport.send.ioerror fired %llu, "
                  "baseline_loss fired %llu)\n", round,
                  (unsigned long long)Failpoints::Instance().fires(
                      "transport.send.ioerror"),
                  (unsigned long long)Failpoints::Instance().fires(
                      "delta_sender.baseline_loss"));
    }

    // --- Points arrive: each producer's patch orbits its home position.
    for (Producer& p : producers) {
      if (p.engine == nullptr) continue;
      const double phase = 0.1 * round + p.id;
      const Point2 center{6.0 * p.id + 2.0 * std::cos(phase),
                          3.0 * std::sin(phase) + 0.05 * round};
      for (int i = 0; i < kPointsPerRound; ++i) {
        const Point2 pt =
            center + Point2{1.5 * rng.Normal(), 0.8 * rng.Normal()};
        p.engine->Insert(pt);
        p.truth.push_back(pt);
      }
    }

    // --- Uplink: one frame per open producer, window permitting.
    for (Producer& p : producers) {
      if (p.engine == nullptr || p.client == nullptr) continue;
      if (round % 9 == 8) p.client->ForceResync();
      if (!p.client->ReadyToSend()) continue;  // Backpressure or redialing.
      // Deterministic radio fades.
      if ((round * 13 + p.id * 7) % 17 == 0 && p.raw != nullptr) {
        p.raw->DropNextSends(1);
        ++p.dropped;
        ++frames_lost;
      }
      if (p.client->SendUpdate(now_ms).ok()) {
        // Self-checkpoint (const encode: does not disturb the chain).
        p.checkpoint = EncodeSummaryView(*p.engine);
      }
    }

    // --- Analyst traffic over the same wire protocol.
    if (round % 5 == 3 && analyst.helloed) {
      SessionMessage q;
      q.type = SessionMessageType::kQuery;
      q.query = ServerQueryKind::kDiameter;
      q.stream = "s0";
      (void)analyst.link->Send(EncodeSessionFrame(q));
      if (kProducers > 1) {
        q.query = ServerQueryKind::kSeparation;
        q.stream_b = "s1";
        (void)analyst.link->Send(EncodeSessionFrame(q));
      }
    }

    server->PumpOnce();
    server->Flush();
    for (Producer& p : producers) {
      if (p.client != nullptr) (void)p.client->Pump(now_ms);
    }
    DrainAnalyst(&analyst);
  }

  // Belt and braces: no failpoint outlives the rounds it was armed for.
  Failpoints::Instance().DisarmAll();

  // --- Final resync: a clean full frame from every survivor, ACKed, so
  // the server's held views cover every point ever observed. The loop
  // also rides out any reconnect a chaos fault left in flight.
  for (Producer& p : producers) {
    if (p.client != nullptr) p.client->ForceResync();
  }
  std::vector<bool> resynced(producers.size(), false);
  std::vector<uint64_t> acks_before(producers.size(), 0);
  for (size_t i = 0; i < producers.size(); ++i) {
    acks_before[i] = TotalStats(producers[i]).acks;
  }
  for (int cycle = 0; cycle < 100; ++cycle) {
    now_ms += 200;
    bool all_done = true;
    for (size_t i = 0; i < producers.size(); ++i) {
      Producer& p = producers[i];
      if (p.client == nullptr) continue;
      (void)p.client->Pump(now_ms);
      if (!resynced[i] && p.client->ReadyToSend()) {
        if (p.client->SendUpdate(now_ms).ok()) resynced[i] = true;
      }
      if (!resynced[i] || TotalStats(p).acks <= acks_before[i]) {
        all_done = false;
      }
    }
    server->PumpOnce();
    server->Flush();
    DrainAnalyst(&analyst);
    if (all_done) break;
  }

  // --- Differential check: certified intervals vs brute-force truth.
  std::printf("\n== differential check ==\n");
  bool all_ok = true;
  constexpr double kEps = 1e-9;
  for (Producer& p : producers) {
    if (p.engine == nullptr) continue;
    SummaryView view;
    if (Status st = server->View(kTenant, p.stream, &view); !st.ok()) {
      std::printf("%s: view unavailable: %s\n", p.stream.c_str(),
                  st.ToString().c_str());
      all_ok = false;
      continue;
    }
    const ConvexPolygon brute = ConvexPolygon::HullOf(p.truth);
    const double true_diameter = Diameter(brute).value;
    const CertifiedScalar diam = CertifiedDiameter(view);
    bool ok = diam.value.lo <= true_diameter + kEps &&
              true_diameter <= diam.value.hi + kEps;
    for (int k = 0; k < 8 && ok; ++k) {
      const double angle = 0.25 * 3.14159265358979323846 * k;
      const Point2 dir{std::cos(angle), std::sin(angle)};
      const double true_extent = DirectionalExtent(brute, dir);
      const Interval extent = CertifiedExtent(view, dir);
      ok = extent.lo <= true_extent + kEps && true_extent <= extent.hi + kEps;
    }
    const ProducerClientStats s = TotalStats(p);
    std::printf("%s (%s, %zu pts, acks=%llu naks=%llu lost=%llu "
                "redials=%llu shed=%llu): diameter %.3f in [%.3f, %.3f] %s\n",
                p.stream.c_str(), EngineKindName(p.kind), p.truth.size(),
                (unsigned long long)s.acks, (unsigned long long)s.naks,
                (unsigned long long)p.dropped,
                (unsigned long long)(s.reconnects + p.carried.connects),
                (unsigned long long)s.shed, true_diameter, diam.value.lo,
                diam.value.hi, ok ? "OK" : "VIOLATED");
    if (!ok) all_ok = false;
  }
  if (kProducers > 1 && producers[0].engine != nullptr &&
      producers[1].engine != nullptr) {
    SummaryView a, b;
    if (server->View(kTenant, "s0", &a).ok() &&
        server->View(kTenant, "s1", &b).ok()) {
      const double true_sep =
          Separation(ConvexPolygon::HullOf(producers[0].truth),
                     ConvexPolygon::HullOf(producers[1].truth))
              .distance;
      const CertifiedSeparationResult sep = CertifiedSeparation(a, b);
      const bool ok = sep.distance.lo <= true_sep + kEps &&
                      true_sep <= sep.distance.hi + kEps;
      std::printf("separation(s0, s1): %.3f in [%.3f, %.3f] %s\n", true_sep,
                  sep.distance.lo, sep.distance.hi, ok ? "OK" : "VIOLATED");
      if (!ok) all_ok = false;
    }
  }
  if (analyst.results == 0) {
    std::printf("analyst received no query results\n");
    all_ok = false;
  }
  if (kChaos && !save_failure_seen) {
    std::printf("injected snapshot save failure was not observed\n");
    all_ok = false;
  }

  std::printf("\n%s", server->MetricsText().c_str());
  std::printf("frames lost in transit: %llu, analyst results: %llu\n",
              (unsigned long long)frames_lost,
              (unsigned long long)analyst.results);
  std::filesystem::remove_all(snapshot_dir);
  if (!all_ok) {
    std::printf("\nSOAK FAILED: a certified interval missed the truth\n");
    return 1;
  }
  std::printf("\nSOAK PASSED: every certified interval bracketed "
              "brute-force truth through loss, churn, a producer crash, "
              "a server restart%s\n",
              kChaos ? ", and injected chaos" : "");
  return 0;
}
