// streamhull: streamhulld — the multi-tenant ingest/query server.
//
// This is the deployment shape the paper's introduction sketches and the
// ROADMAP names: producers summarize locally and ship certified sandwiches;
// a central server ingests v2/v3 frames from many tenants, answers
// certified queries from the decoded views alone, and survives restarts by
// persisting nothing but the views.
//
// Architecture (full walkthrough in DESIGN.md, "Server architecture"):
//
//   * Sessions speak the wire protocol of server/wire.h over any Transport.
//     Session I/O and frame decoding run on the *pump* thread —
//     PumpOnce() drains every session's transport, validates frames, and
//     dispatches messages. The server never spawns its own I/O threads, so
//     a test (or the soak) drives it deterministically: attach pipe
//     transports, PumpOnce()+Flush(), assert.
//
//   * Each tenant owns a StreamGroup of remote streams and one strand on
//     the server's ThreadPool. Every group-touching operation
//     (DATA apply, OPEN, QUERY) is posted to the tenant's strand, so the
//     group sees single-threaded access in arrival order while distinct
//     tenants ingest concurrently across the pool — the same single-writer
//     sharding discipline as StreamGroup::InsertBatchAsync.
//
//   * Backpressure: each session has a bounded count of posted-but-
//     unprocessed frames. When a session reaches the bound, PumpOnce stops
//     reading *that session's* transport entirely (bytes stay queued on
//     the sending side, in kernel/pipe order) until its strand catches
//     up, so per-session buffering is bounded; other sessions are
//     unaffected.
//
//   * Restart: SaveSnapshots() re-encodes every held view into
//     snapshot_dir; a new server instance loads them in AddTenant, so
//     OPEN_OK reports the pre-restart held generation and producers whose
//     delta chain matches continue without a resync (those that ran ahead
//     get a NAK, exactly as for a lost frame).
//
// Thread-safety: construct, AddTenant, and AttachSession from the owning
// thread before pumping; PumpOnce/Flush from one thread at a time.
// MetricsText and SaveSnapshots flush internally and must come from the
// pump thread. Counters are atomics, updated from pool strands.

#ifndef STREAMHULL_SERVER_STREAMHULLD_H_
#define STREAMHULL_SERVER_STREAMHULLD_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "multi/stream_group.h"
#include "runtime/thread_pool.h"
#include "server/transport.h"
#include "server/wire.h"

namespace streamhull {

/// \brief Configuration of a StreamHullServer.
struct ServerOptions {
  /// Engine options for the tenant StreamGroups (remote streams run no
  /// engine; this mainly configures any future local streams and
  /// validation defaults).
  EngineOptions engine;
  /// Runtime pool workers; 0 selects the hardware concurrency.
  size_t num_threads = 0;
  /// Per-frame payload cap handed to each session's FrameDecoder.
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Backpressure bound: posted-but-unprocessed frames per session before
  /// PumpOnce stops reading that session's transport (0 pauses reading
  /// entirely — a test hook).
  size_t max_pending_per_session = 64;
  /// Directory for view persistence (SaveSnapshots / restart restore);
  /// empty disables persistence.
  std::string snapshot_dir;
  /// Load shedding: sessions beyond this bound are refused at
  /// AttachSession with a ResourceExhausted ERROR frame (0 = unlimited).
  size_t max_sessions = 0;
  /// Load shedding: OPENs that would create a stream beyond this
  /// per-tenant bound are refused with a ResourceExhausted ERROR frame —
  /// the session itself stays up (0 = unlimited).
  size_t max_streams_per_tenant = 0;
};

/// \brief Point-in-time copy of one tenant's counters.
struct TenantMetrics {
  uint64_t streams = 0;          ///< Streams currently registered.
  uint64_t restored_streams = 0; ///< Streams loaded from snapshot_dir.
  uint64_t frames = 0;           ///< DATA frames received (any outcome).
  uint64_t bytes = 0;            ///< Payload bytes across those frames.
  uint64_t full_frames = 0;      ///< v2 frames applied.
  uint64_t delta_frames = 0;     ///< v3 frames applied.
  uint64_t resyncs = 0;          ///< NAKs sent (generation gaps).
  uint64_t rejected_frames = 0;  ///< Malformed frames refused.
  uint64_t queries = 0;          ///< QUERY messages answered.
  /// Snapshot files found corrupt/undecodable at boot and renamed to
  /// <name>.shl2.corrupt (the tenant booted without them).
  uint64_t quarantined_snapshots = 0;
  /// OPENs refused by the per-tenant stream bound (ResourceExhausted).
  uint64_t shed_streams = 0;
};

/// \brief Server-wide counters.
struct ServerMetrics {
  uint64_t sessions_attached = 0;
  uint64_t sessions_closed = 0;
  uint64_t polls = 0;            ///< PumpOnce calls.
  uint64_t poll_ns = 0;          ///< Wall time across those calls.
  uint64_t frames_dispatched = 0;  ///< Session messages handled.
  /// Connections refused by the max_sessions bound (ResourceExhausted).
  uint64_t shed_sessions = 0;
  /// Per-stream snapshot writes that failed across every SaveSnapshots
  /// call (each save is best-effort; failures aggregate here and in the
  /// returned Status).
  uint64_t snapshot_save_failures = 0;
};

/// \brief The streamhulld server core: tenants, sessions, pump loop,
/// metrics, persistence. Transport-agnostic — the daemon main wires it to
/// Unix sockets, the tests to pipes.
class StreamHullServer {
 public:
  explicit StreamHullServer(ServerOptions options);
  ~StreamHullServer();

  StreamHullServer(const StreamHullServer&) = delete;
  StreamHullServer& operator=(const StreamHullServer&) = delete;

  /// \brief Registers a tenant with its auth token and, when persistence
  /// is configured, restores every stream snapshot found under
  /// snapshot_dir/<tenant>/. Fails on duplicate names or tokens. Call
  /// before pumping.
  Status AddTenant(const std::string& name, const std::string& token);

  /// \brief Adopts a connected transport as a new session. The session
  /// starts unauthenticated; its first frame must be a valid HELLO.
  /// When max_sessions is configured and reached, the connection is shed
  /// instead: one ResourceExhausted ERROR frame, then close.
  void AttachSession(std::unique_ptr<Transport> transport);

  /// \brief One deterministic pump: reap closed sessions, drain every
  /// session's transport through its frame decoder (respecting the
  /// per-session backpressure bound), dispatch the decoded messages, and
  /// return how many were dispatched. Strand work may still be running
  /// when it returns; Flush() is the barrier.
  size_t PumpOnce();

  /// Barrier: every dispatched message has been fully processed (and its
  /// reply handed to the transport) when this returns.
  void Flush();

  /// Sessions currently attached (closed-but-unreaped ones included).
  size_t session_count() const { return sessions_.size(); }

  /// \brief Re-encodes every tenant's held views into snapshot_dir (one
  /// checksummed file per stream, written atomically: tmp -> fsync ->
  /// rename -> dir fsync, so a crash at any point leaves the previous
  /// snapshot intact). Flushes first. Best-effort: a failed stream or
  /// tenant never blocks the rest; failures aggregate into the returned
  /// IOError (and metrics().snapshot_save_failures). FailedPrecondition
  /// when persistence is disabled.
  Status SaveSnapshots();

  /// \brief Human-readable metrics: one server line plus one line per
  /// tenant. Flushes first (so stream counts are stable to read). The
  /// server line's health= reads "shedding" while a load bound is
  /// saturated, else "degraded" once a snapshot save failed or a snapshot
  /// was quarantined, else "ok".
  std::string MetricsText();

  /// Point-in-time copy of a tenant's counters (flushes first). Fails on
  /// unknown tenants.
  Status Metrics(const std::string& tenant, TenantMetrics* out);

  /// Server-wide counters.
  ServerMetrics metrics() const;

  /// \brief Direct certified-query access for embedders and tests: the
  /// named tenant's stream sandwich, bypassing the wire protocol. Flushes
  /// first.
  Status View(const std::string& tenant, const std::string& stream,
              SummaryView* out);

 private:
  struct Tenant;
  struct Session;

  /// Dispatches one decoded message on \p session. Returns false when the
  /// session should stop being drained this pump (backpressure).
  void HandleMessage(Session* session, SessionMessage msg);

  void SendOnSession(Session* session, const SessionMessage& msg);
  void CloseSession(Session* session, StatusCode code,
                    const std::string& reason);

  /// Valid stream names: non-empty, at most 128 chars, [A-Za-z0-9._-]
  /// only — they double as snapshot file names.
  static bool ValidStreamName(const std::string& name);

  /// \brief Restores every decodable snapshot under
  /// snapshot_dir/<tenant>/. Corrupt, truncated, or undecodable files are
  /// quarantined (renamed to <name>.shl2.corrupt, counted in
  /// quarantined_snapshots) and the tenant boots with whatever survived;
  /// only a failure to list the directory itself aborts.
  Status LoadTenantSnapshots(Tenant* tenant);

  /// Live (attached, not yet closed) sessions.
  size_t LiveSessionCount() const;

  ServerOptions options_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::map<std::string, Tenant*> tenants_by_token_;
  std::vector<std::unique_ptr<Session>> sessions_;

  std::atomic<uint64_t> sessions_attached_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> polls_{0};
  std::atomic<uint64_t> poll_ns_{0};
  std::atomic<uint64_t> frames_dispatched_{0};
  std::atomic<uint64_t> shed_sessions_{0};
  std::atomic<uint64_t> snapshot_save_failures_{0};

  /// Declared last so it is destroyed first: ~ThreadPool drains every
  /// strand task — they touch the sessions, tenants and counters above —
  /// before any of those go away.
  ThreadPool pool_;
};

}  // namespace streamhull

#endif  // STREAMHULL_SERVER_STREAMHULLD_H_
