#include "server/streamhulld.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "core/checked_file.h"
#include "core/snapshot.h"
#include "queries/certified.h"

namespace streamhull {

namespace fs = std::filesystem;

// One tenant: its auth token, its StreamGroup of remote streams, and the
// runtime strand that owns every access to that group. Counters are
// atomics because strands bump them while the pump thread reads metrics.
struct StreamHullServer::Tenant {
  explicit Tenant(const EngineOptions& options) : group(options) {}

  std::string name;
  std::string token;
  StreamGroup group;
  ThreadPool::StrandId strand = 0;

  std::atomic<uint64_t> streams{0};
  std::atomic<uint64_t> restored_streams{0};
  std::atomic<uint64_t> frames{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> full_frames{0};
  std::atomic<uint64_t> delta_frames{0};
  std::atomic<uint64_t> resyncs{0};
  std::atomic<uint64_t> rejected_frames{0};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> quarantined_snapshots{0};
  std::atomic<uint64_t> shed_streams{0};
};

// One attached connection. State and tenant binding are touched only by
// the pump thread; `pending` is the backpressure counter shared with the
// tenant strand (incremented at dispatch, decremented when the strand
// finishes the message).
struct StreamHullServer::Session {
  explicit Session(std::unique_ptr<Transport> t, size_t max_payload)
      : transport(std::move(t)), decoder(max_payload) {}

  enum class State { kAwaitHello, kReady, kClosed };

  std::unique_ptr<Transport> transport;
  FrameDecoder decoder;
  State state = State::kAwaitHello;
  Tenant* tenant = nullptr;
  std::atomic<size_t> pending{0};
  std::string scratch;
};

StreamHullServer::StreamHullServer(ServerOptions options)
    : options_(std::move(options)), pool_(options_.num_threads) {}

StreamHullServer::~StreamHullServer() = default;

bool StreamHullServer::ValidStreamName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

Status StreamHullServer::AddTenant(const std::string& name,
                                   const std::string& token) {
  if (name.empty()) return Status::InvalidArgument("empty tenant name");
  if (token.empty()) return Status::InvalidArgument("empty tenant token");
  if (tenants_.count(name) > 0) {
    return Status::InvalidArgument("tenant '" + name + "' already exists");
  }
  if (tenants_by_token_.count(token) > 0) {
    return Status::InvalidArgument("token already assigned to a tenant");
  }
  auto tenant = std::make_unique<Tenant>(options_.engine);
  tenant->name = name;
  tenant->token = token;
  tenant->strand = pool_.AddStrand();
  STREAMHULL_RETURN_IF_ERROR(LoadTenantSnapshots(tenant.get()));
  tenants_by_token_.emplace(token, tenant.get());
  tenants_.emplace(name, std::move(tenant));
  return Status::OK();
}

namespace {

// Moves a corrupt snapshot aside as <file>.corrupt so the next boot does
// not trip over it again and an operator can post-mortem the bytes. Best
// effort: if even the rename fails, fall back to removing the file, and
// if that fails too the file is merely skipped this boot.
void QuarantineSnapshot(const fs::path& file) {
  std::error_code ec;
  fs::rename(file, fs::path(file.string() + ".corrupt"), ec);
  if (ec) fs::remove(file, ec);
}

}  // namespace

Status StreamHullServer::LoadTenantSnapshots(Tenant* tenant) {
  if (options_.snapshot_dir.empty()) return Status::OK();
  const fs::path dir = fs::path(options_.snapshot_dir) / tenant->name;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return Status::OK();  // Nothing saved.
  // Explicit increment(ec), not range-for: range-based iteration uses the
  // throwing operator++, which would turn a filesystem error mid-listing
  // into an exception out of AddTenant instead of a Status.
  fs::directory_iterator it(dir, ec);
  for (; !ec && it != fs::directory_iterator(); it.increment(ec)) {
    const fs::directory_entry& entry = *it;
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) || entry_ec ||
        entry.path().extension() != ".shl2") {
      continue;  // Quarantined (.corrupt), torn tmps (.tmp), strangers.
    }
    const std::string stream = entry.path().stem().string();
    if (!ValidStreamName(stream)) continue;  // Not a file we wrote.

    // A single bad file must cost exactly that stream, never the tenant:
    // verify the checksum footer, fall back to a legacy footer-less
    // decode, and quarantine anything that fails both.
    std::string bytes;
    Status st = ReadFileChecked(entry.path().string(), &bytes);
    if (st.code() == StatusCode::kDataLoss) {
      // No valid footer. Pre-checksum snapshots are raw frames; accept
      // the file iff its raw bytes decode as a complete summary view
      // (the next SaveSnapshots rewrites it checksummed).
      std::ifstream in(entry.path(), std::ios::binary);
      std::string raw((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
      DecodedSummaryView probe;
      if ((in.good() || in.eof()) &&
          DecodeSummaryView(raw, &probe).ok()) {
        bytes = std::move(raw);
      } else {
        QuarantineSnapshot(entry.path());
        tenant->quarantined_snapshots.fetch_add(1,
                                                std::memory_order_relaxed);
        continue;
      }
    } else if (!st.ok()) {
      // Unreadable (I/O failure, not bad bytes): skip it this boot — the
      // file may be fine once the disk recovers, so no quarantine.
      continue;
    }
    if (!tenant->group.AddRemoteStream(stream).ok()) continue;
    st = tenant->group.UpdateRemoteStream(stream, bytes);
    if (!st.ok()) {
      // Checksum-valid but undecodable (or a decoder regression): the
      // stream boots empty-less, the tenant boots regardless.
      (void)tenant->group.RemoveStream(stream);
      QuarantineSnapshot(entry.path());
      tenant->quarantined_snapshots.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    tenant->streams.fetch_add(1, std::memory_order_relaxed);
    tenant->restored_streams.fetch_add(1, std::memory_order_relaxed);
  }
  if (ec) {
    return Status::IOError("listing snapshot dir " + dir.string() + ": " +
                           ec.message());
  }
  return Status::OK();
}

size_t StreamHullServer::LiveSessionCount() const {
  size_t live = 0;
  for (const auto& s : sessions_) {
    if (s->state != Session::State::kClosed) ++live;
  }
  return live;
}

void StreamHullServer::AttachSession(std::unique_ptr<Transport> transport) {
  SH_CHECK(transport != nullptr);
  if (options_.max_sessions > 0 &&
      LiveSessionCount() >= options_.max_sessions) {
    // Shed, don't queue: an overloaded server tells the client so
    // explicitly (the ProducerClient backs off on this), then hangs up.
    SessionMessage err;
    err.type = SessionMessageType::kError;
    err.code = static_cast<uint8_t>(StatusCode::kResourceExhausted);
    err.payload = "session limit reached (" +
                  std::to_string(options_.max_sessions) + ")";
    (void)transport->Send(EncodeSessionFrame(err));
    transport->Close();
    shed_sessions_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  sessions_.push_back(std::make_unique<Session>(std::move(transport),
                                                options_.max_frame_payload));
  sessions_attached_.fetch_add(1, std::memory_order_relaxed);
}

void StreamHullServer::SendOnSession(Session* session,
                                     const SessionMessage& msg) {
  // A failed send means the peer vanished; the pump notices on its next
  // Recv and reaps the session, so the status is deliberately dropped.
  (void)session->transport->Send(EncodeSessionFrame(msg));
}

void StreamHullServer::CloseSession(Session* session, StatusCode code,
                                    const std::string& reason) {
  SessionMessage err;
  err.type = SessionMessageType::kError;
  err.code = static_cast<uint8_t>(code);
  err.payload = reason;
  SendOnSession(session, err);
  session->transport->Close();
  session->state = Session::State::kClosed;
  sessions_closed_.fetch_add(1, std::memory_order_relaxed);
}

void StreamHullServer::HandleMessage(Session* session, SessionMessage msg) {
  if (session->state == Session::State::kAwaitHello) {
    if (msg.type != SessionMessageType::kHello) {
      CloseSession(session, StatusCode::kFailedPrecondition,
                   std::string("expected HELLO, got ") +
                       SessionMessageTypeName(msg.type));
      return;
    }
    if (msg.version != kServerProtocolVersion) {
      CloseSession(session, StatusCode::kInvalidArgument,
                   "unsupported protocol version " +
                       std::to_string(msg.version));
      return;
    }
    auto it = tenants_by_token_.find(msg.token);
    if (it == tenants_by_token_.end()) {
      CloseSession(session, StatusCode::kInvalidArgument,
                   "unknown tenant token");
      return;
    }
    session->tenant = it->second;
    session->state = Session::State::kReady;
    SessionMessage ok;
    ok.type = SessionMessageType::kHelloOk;
    ok.version = kServerProtocolVersion;
    SendOnSession(session, ok);
    return;
  }
  if (session->state == Session::State::kClosed) return;

  Tenant* tenant = session->tenant;
  switch (msg.type) {
    case SessionMessageType::kOpen: {
      if (!ValidStreamName(msg.stream)) {
        CloseSession(session, StatusCode::kInvalidArgument,
                     "invalid stream name in OPEN");
        return;
      }
      session->pending.fetch_add(1, std::memory_order_release);
      pool_.Post(tenant->strand, [this, session, tenant,
                                  name = std::move(msg.stream)] {
        // Idempotent attach: an existing stream is simply re-opened, and
        // OPEN_OK reports whatever generation the server already holds —
        // the reconnecting producer's cue for where to resume the chain.
        RemoteStreamStats rs;
        const bool exists = tenant->group.RemoteStats(name, &rs).ok();
        if (!exists && options_.max_streams_per_tenant > 0 &&
            tenant->streams.load(std::memory_order_relaxed) >=
                options_.max_streams_per_tenant) {
          // Shed the stream, keep the session: the producer may hold
          // other, already-open streams on this connection.
          tenant->shed_streams.fetch_add(1, std::memory_order_relaxed);
          SessionMessage err;
          err.type = SessionMessageType::kError;
          err.code = static_cast<uint8_t>(StatusCode::kResourceExhausted);
          err.payload = "stream limit reached (" +
                        std::to_string(options_.max_streams_per_tenant) +
                        "); refusing OPEN " + name;
          SendOnSession(session, err);
          session->pending.fetch_sub(1, std::memory_order_release);
          return;
        }
        if (!exists && tenant->group.AddRemoteStream(name).ok()) {
          tenant->streams.fetch_add(1, std::memory_order_relaxed);
        }
        uint64_t held = 0;
        if (tenant->group.RemoteStats(name, &rs).ok()) {
          held = rs.held_generation;
        }
        SessionMessage reply;
        reply.type = SessionMessageType::kOpenOk;
        reply.stream = name;
        reply.generation = held;
        SendOnSession(session, reply);
        session->pending.fetch_sub(1, std::memory_order_release);
      });
      break;
    }
    case SessionMessageType::kData: {
      tenant->frames.fetch_add(1, std::memory_order_relaxed);
      tenant->bytes.fetch_add(msg.payload.size(), std::memory_order_relaxed);
      session->pending.fetch_add(1, std::memory_order_release);
      pool_.Post(tenant->strand, [this, session, tenant,
                                  m = std::move(msg)] {
        const uint32_t version = SnapshotVersion(m.payload);
        const Status st = tenant->group.UpdateRemoteStream(m.stream,
                                                           m.payload);
        SessionMessage reply;
        if (st.ok()) {
          (version == 3 ? tenant->delta_frames : tenant->full_frames)
              .fetch_add(1, std::memory_order_relaxed);
          reply.type = SessionMessageType::kAck;
        } else if (st.code() == StatusCode::kFailedPrecondition) {
          tenant->resyncs.fetch_add(1, std::memory_order_relaxed);
          reply.type = SessionMessageType::kNak;
        } else {
          tenant->rejected_frames.fetch_add(1, std::memory_order_relaxed);
          reply.type = SessionMessageType::kError;
          reply.code = static_cast<uint8_t>(st.code());
          reply.payload = st.ToString();
          SendOnSession(session, reply);
          session->pending.fetch_sub(1, std::memory_order_release);
          return;
        }
        reply.stream = m.stream;
        RemoteStreamStats rs;
        if (tenant->group.RemoteStats(m.stream, &rs).ok()) {
          reply.generation = rs.held_generation;
        }
        SendOnSession(session, reply);
        session->pending.fetch_sub(1, std::memory_order_release);
      });
      break;
    }
    case SessionMessageType::kQuery: {
      tenant->queries.fetch_add(1, std::memory_order_relaxed);
      session->pending.fetch_add(1, std::memory_order_release);
      pool_.Post(tenant->strand, [this, session, tenant,
                                  m = std::move(msg)] {
        SessionMessage reply;
        SummaryView a;
        Status st = tenant->group.View(m.stream, &a);
        SummaryView b;
        if (st.ok() && m.query == ServerQueryKind::kSeparation) {
          st = tenant->group.View(m.stream_b, &b);
        }
        if (!st.ok()) {
          reply.type = SessionMessageType::kError;
          reply.code = static_cast<uint8_t>(st.code());
          reply.payload = st.ToString();
          SendOnSession(session, reply);
          session->pending.fetch_sub(1, std::memory_order_release);
          return;
        }
        reply.type = SessionMessageType::kQueryResult;
        reply.query = m.query;
        reply.certainty = static_cast<uint8_t>(Certainty::kTrue);
        switch (m.query) {
          case ServerQueryKind::kDiameter: {
            const CertifiedScalar d = CertifiedDiameter(a);
            reply.lo = d.value.lo;
            reply.hi = d.value.hi;
            break;
          }
          case ServerQueryKind::kExtent: {
            const Interval e = CertifiedExtent(a, Point2{m.dir_x, m.dir_y});
            reply.lo = e.lo;
            reply.hi = e.hi;
            break;
          }
          case ServerQueryKind::kSeparation: {
            const CertifiedSeparationResult s = CertifiedSeparation(a, b);
            reply.lo = s.distance.lo;
            reply.hi = s.distance.hi;
            reply.certainty = static_cast<uint8_t>(s.separable);
            break;
          }
        }
        SendOnSession(session, reply);
        session->pending.fetch_sub(1, std::memory_order_release);
      });
      break;
    }
    case SessionMessageType::kBye:
      session->transport->Close();
      session->state = Session::State::kClosed;
      sessions_closed_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      CloseSession(session, StatusCode::kFailedPrecondition,
                   std::string("unexpected ") +
                       SessionMessageTypeName(msg.type) + " from a client");
      break;
  }
}

size_t StreamHullServer::PumpOnce() {
  const auto start = std::chrono::steady_clock::now();

  // Reap sessions closed on earlier pumps. The barrier guarantees no
  // strand task still holds a pointer into one.
  bool any_closed = false;
  for (const auto& s : sessions_) {
    if (s->state == Session::State::kClosed) {
      any_closed = true;
      break;
    }
  }
  if (any_closed) {
    Flush();
    std::erase_if(sessions_, [](const std::unique_ptr<Session>& s) {
      return s->state == Session::State::kClosed;
    });
  }

  size_t dispatched = 0;
  for (auto& owned : sessions_) {
    Session* session = owned.get();
    if (session->state == Session::State::kClosed) continue;

    // Backpressure starts at the transport: a session at its pending
    // bound is not read at all, so its bytes stay queued on the sending
    // side (kernel or pipe buffer) and per-session buffering stays
    // bounded — the decoder never grows while the tenant strand is
    // behind, and a producer that keeps pushing eventually blocks in its
    // own Send. Reading resumes (and a vanished peer is noticed) once
    // the strand catches up.
    if (session->pending.load(std::memory_order_acquire) >=
        options_.max_pending_per_session) {
      continue;
    }

    session->scratch.clear();
    const Status recv_status = session->transport->Recv(&session->scratch);
    if (!session->scratch.empty()) session->decoder.Feed(session->scratch);

    for (;;) {
      // Frames already decoded stop dispatching at the bound too; they
      // wait in the decoder until the next pump finds headroom.
      if (session->pending.load(std::memory_order_acquire) >=
          options_.max_pending_per_session) {
        break;
      }
      std::string frame;
      bool got = false;
      Status st = session->decoder.Next(&frame, &got);
      if (!st.ok()) {
        CloseSession(session, StatusCode::kInvalidArgument, st.message());
        break;
      }
      if (!got) break;
      SessionMessage msg;
      st = DecodeSessionMessage(frame, &msg);
      if (!st.ok()) {
        CloseSession(session, StatusCode::kInvalidArgument, st.message());
        break;
      }
      ++dispatched;
      HandleMessage(session, std::move(msg));
      if (session->state == Session::State::kClosed) break;
    }

    if (session->state != Session::State::kClosed && !recv_status.ok()) {
      // The peer is gone: everything received was processed above; a
      // mid-frame truncation is recorded via Finish() semantics by virtue
      // of being unframeable, and either way the session ends here.
      session->transport->Close();
      session->state = Session::State::kClosed;
      sessions_closed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  frames_dispatched_.fetch_add(dispatched, std::memory_order_relaxed);
  polls_.fetch_add(1, std::memory_order_relaxed);
  poll_ns_.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count(),
      std::memory_order_relaxed);
  return dispatched;
}

void StreamHullServer::Flush() { pool_.WaitIdle(); }

Status StreamHullServer::SaveSnapshots() {
  if (options_.snapshot_dir.empty()) {
    return Status::FailedPrecondition("persistence disabled: no snapshot_dir");
  }
  Flush();
  // Best-effort across the whole fleet: one stream's bad disk must not
  // cost another tenant its snapshots. Failures are counted, the first
  // one is quoted in the aggregate status, and every stream is attempted.
  uint64_t failures = 0;
  std::string first_error;
  for (const auto& [name, tenant] : tenants_) {
    const fs::path dir = fs::path(options_.snapshot_dir) / name;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      ++failures;
      if (first_error.empty()) {
        first_error =
            "create_directories(" + dir.string() + "): " + ec.message();
      }
      continue;
    }
    for (const std::string& stream : tenant->group.StreamNames()) {
      DecodedSummaryView view;
      if (!tenant->group.RemoteView(stream, &view).ok()) {
        continue;  // Local stream or nothing held yet: nothing to persist.
      }
      const fs::path file = dir / (stream + ".shl2");
      const Status st =
          WriteFileAtomicChecked(file.string(), EncodeSummaryView(view));
      if (!st.ok()) {
        ++failures;
        if (first_error.empty()) {
          first_error = file.string() + ": " + st.ToString();
        }
      }
    }
  }
  if (failures > 0) {
    snapshot_save_failures_.fetch_add(failures, std::memory_order_relaxed);
    return Status::IOError(std::to_string(failures) +
                           " snapshot write(s) failed; first: " + first_error);
  }
  return Status::OK();
}

Status StreamHullServer::Metrics(const std::string& tenant,
                                 TenantMetrics* out) {
  Flush();
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::InvalidArgument("unknown tenant '" + tenant + "'");
  }
  const Tenant& t = *it->second;
  TenantMetrics m;
  m.streams = t.streams.load(std::memory_order_relaxed);
  m.restored_streams = t.restored_streams.load(std::memory_order_relaxed);
  m.frames = t.frames.load(std::memory_order_relaxed);
  m.bytes = t.bytes.load(std::memory_order_relaxed);
  m.full_frames = t.full_frames.load(std::memory_order_relaxed);
  m.delta_frames = t.delta_frames.load(std::memory_order_relaxed);
  m.resyncs = t.resyncs.load(std::memory_order_relaxed);
  m.rejected_frames = t.rejected_frames.load(std::memory_order_relaxed);
  m.queries = t.queries.load(std::memory_order_relaxed);
  m.quarantined_snapshots =
      t.quarantined_snapshots.load(std::memory_order_relaxed);
  m.shed_streams = t.shed_streams.load(std::memory_order_relaxed);
  *out = m;
  return Status::OK();
}

ServerMetrics StreamHullServer::metrics() const {
  ServerMetrics m;
  m.sessions_attached = sessions_attached_.load(std::memory_order_relaxed);
  m.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  m.polls = polls_.load(std::memory_order_relaxed);
  m.poll_ns = poll_ns_.load(std::memory_order_relaxed);
  m.frames_dispatched = frames_dispatched_.load(std::memory_order_relaxed);
  m.shed_sessions = shed_sessions_.load(std::memory_order_relaxed);
  m.snapshot_save_failures =
      snapshot_save_failures_.load(std::memory_order_relaxed);
  return m;
}

std::string StreamHullServer::MetricsText() {
  Flush();
  const ServerMetrics sm = metrics();
  std::ostringstream out;
  const double avg_poll_us =
      sm.polls == 0 ? 0.0
                    : static_cast<double>(sm.poll_ns) / 1000.0 /
                          static_cast<double>(sm.polls);
  bool shedding = options_.max_sessions > 0 &&
                  LiveSessionCount() >= options_.max_sessions;
  bool degraded = sm.snapshot_save_failures > 0;
  for (const auto& [name, tenant] : tenants_) {
    if (options_.max_streams_per_tenant > 0 &&
        tenant->streams.load(std::memory_order_relaxed) >=
            options_.max_streams_per_tenant) {
      shedding = true;
    }
    if (tenant->quarantined_snapshots.load(std::memory_order_relaxed) > 0) {
      degraded = true;
    }
  }
  const char* health = shedding ? "shedding" : degraded ? "degraded" : "ok";
  out << "streamhulld: tenants=" << tenants_.size()
      << " sessions=" << sessions_.size() << " polls=" << sm.polls
      << " avg_poll_us=" << avg_poll_us
      << " messages=" << sm.frames_dispatched
      << " shed_sessions=" << sm.shed_sessions
      << " snapshot_save_failures=" << sm.snapshot_save_failures
      << " health=" << health << "\n";
  for (const auto& [name, tenant] : tenants_) {
    TenantMetrics m;
    (void)Metrics(name, &m);
    out << "tenant " << name << ": streams=" << m.streams
        << " restored=" << m.restored_streams << " frames=" << m.frames
        << " bytes=" << m.bytes << " full=" << m.full_frames
        << " delta=" << m.delta_frames << " resyncs=" << m.resyncs
        << " rejected=" << m.rejected_frames << " queries=" << m.queries
        << " quarantined=" << m.quarantined_snapshots
        << " shed=" << m.shed_streams << "\n";
  }
  return out.str();
}

Status StreamHullServer::View(const std::string& tenant,
                              const std::string& stream, SummaryView* out) {
  Flush();
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::InvalidArgument("unknown tenant '" + tenant + "'");
  }
  return it->second->group.View(stream, out);
}

}  // namespace streamhull
