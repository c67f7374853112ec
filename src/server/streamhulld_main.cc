// streamhulld: the deployable daemon around StreamHullServer.
//
// Listens on a Unix-domain socket, accepts producer/query sessions, pumps
// the server, logs a metrics line periodically, and persists every held
// view on shutdown (SIGINT/SIGTERM) so the next start restores them.
//
// Usage (one command line):
//
//   streamhulld --socket /run/streamhulld.sock
//               --tenant field:s3cret --tenant lab:hunter2
//               --snapshot-dir /var/lib/streamhulld
//               [--threads N] [--metrics-every 10] [--max-polls N]
//
// --max-polls bounds the pump loop (0 = run until a signal); the CI smoke
// run uses it to exercise the full daemon path without daemonizing. An
// idle pump parks in StreamHullServer::WaitForWork for at most 1 ms, so
// new connections, metrics lines and signals are seen within that.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/failpoint.h"
#include "server/streamhulld.h"
#include "server/transport.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH --tenant NAME:TOKEN "
               "[--tenant NAME:TOKEN ...] [--snapshot-dir DIR] "
               "[--threads N] [--metrics-every SECONDS] [--max-polls N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace streamhull;

  std::string socket_path;
  std::vector<std::pair<std::string, std::string>> tenants;
  ServerOptions options;
  int metrics_every = 10;
  long max_polls = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      socket_path = v;
    } else if (arg == "--tenant") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      const std::string spec = v;
      const size_t colon = spec.find(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == spec.size()) {
        std::fprintf(stderr, "bad --tenant spec '%s' (want NAME:TOKEN)\n",
                     spec.c_str());
        return 2;
      }
      tenants.emplace_back(spec.substr(0, colon), spec.substr(colon + 1));
    } else if (arg == "--snapshot-dir") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.snapshot_dir = v;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.num_threads = static_cast<size_t>(std::atol(v));
    } else if (arg == "--metrics-every") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      metrics_every = std::atoi(v);
    } else if (arg == "--max-polls") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      max_polls = std::atol(v);
    } else {
      return Usage(argv[0]);
    }
  }
  if (socket_path.empty() || tenants.empty()) return Usage(argv[0]);

  StreamHullServer server(options);
  for (const auto& [name, token] : tenants) {
    const Status st = server.AddTenant(name, token);
    if (!st.ok()) {
      std::fprintf(stderr, "streamhulld: AddTenant(%s): %s\n", name.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }

  UnixSocketListener listener;
  {
    const Status st = listener.Listen(socket_path);
    if (!st.ok()) {
      std::fprintf(stderr, "streamhulld: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("streamhulld: listening on %s (%zu tenants)\n",
              socket_path.c_str(), tenants.size());
  // Armed failpoints (STREAMHULL_FAILPOINTS) are loud on purpose: a chaos
  // configuration that leaks into production should be obvious from the
  // first lines of the log.
  for (const std::string& site : Failpoints::Instance().ArmedNames()) {
    std::printf("streamhulld: FAILPOINT ARMED: %s\n", site.c_str());
  }
  std::fflush(stdout);

  auto last_metrics = std::chrono::steady_clock::now();
  long polls = 0;
  while (g_stop == 0 && (max_polls == 0 || polls < max_polls)) {
    std::unique_ptr<UnixSocketTransport> conn;
    while (listener.Accept(&conn).ok() && conn != nullptr) {
      server.AttachSession(std::move(conn));
    }
    const size_t dispatched = server.PumpOnce();
    ++polls;
    if (dispatched == 0) server.WaitForWork(1);
    const auto now = std::chrono::steady_clock::now();
    if (metrics_every > 0 &&
        now - last_metrics >= std::chrono::seconds(metrics_every)) {
      std::fputs(server.MetricsText().c_str(), stdout);
      std::fflush(stdout);
      last_metrics = now;
    }
  }

  server.Flush();
  if (!options.snapshot_dir.empty()) {
    const Status st = server.SaveSnapshots();
    if (!st.ok()) {
      std::fprintf(stderr, "streamhulld: SaveSnapshots: %s\n",
                   st.ToString().c_str());
    }
  }
  std::fputs(server.MetricsText().c_str(), stdout);
  std::printf("streamhulld: bye\n");
  return 0;
}
