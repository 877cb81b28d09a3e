// Many-client sync server over the protocol registry: the blocking driver.
//
// A SyncServer is a HostCore (server/host_core.h) — the canonical set in a
// SketchStore, its replication position and write path, the metrics
// registry — served through one Connection (server/connection.h) per
// client, which makes every decision: "@hello" syncs bit-identical to
// recon::DrivePair against a pinned snapshot (DESIGN.md §9), the
// replication verbs "@log-fetch" and "@pull", and "@stats". This class
// only moves bytes: ServeConnection loops a Connection over a
// FramedStream.
//
// Threading model: Start() spawns one accept thread plus a fixed pool of
// worker threads; accepted connections go through a queue and each worker
// serves one connection at a time, blocking on its socket. Sessions are
// single-threaded end to end — only the queue (behind a mutex) and the
// metrics registry (lock-free record path; server/server_obs.h) are
// shared — which is what keeps the protocol code
// (written for the in-process driver) safe to host unchanged. See
// DESIGN.md §6.

#ifndef RSR_SERVER_SYNC_SERVER_H_
#define RSR_SERVER_SYNC_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "net/byte_stream.h"
#include "net/tcp.h"
#include "server/host_core.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace server {

struct SyncServerOptions : HostOptions {
  size_t worker_threads = 4;
};

class SyncServer : public HostCore {
 public:
  SyncServer(PointSet canonical, SyncServerOptions options);
  ~SyncServer();

  /// Serves exactly one connection to completion on the calling thread.
  /// Start()'s workers call it, and tests and the fuzzer drive it directly
  /// over a PipeStream.
  void ServeConnection(net::ByteStream* stream);

  /// Spawns the accept thread and worker pool over `listener`. Returns
  /// false if already started or `listener` is null.
  bool Start(std::unique_ptr<net::TcpListener> listener);

  /// Closes the listener plus every queued and in-flight connection
  /// stream (so shutdown never waits on a silent client), then joins all
  /// threads. Idempotent; also called by the destructor.
  void Stop();

  /// Bound TCP port (0 unless Start()ed).
  uint16_t port() const;

 private:
  void AcceptLoop();
  void WorkerLoop();

  const size_t worker_threads_;

  std::unique_ptr<net::TcpListener> listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  /// A queued connection remembers when it was accepted so the dequeuing
  /// worker can observe the queue-delay histogram.
  struct PendingConn {
    std::unique_ptr<net::ByteStream> stream;
    std::chrono::steady_clock::time_point enqueued;
  };

  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<PendingConn> pending_ RSR_GUARDED_BY(queue_mu_);
  bool stopping_ RSR_GUARDED_BY(queue_mu_) = false;

  /// Streams currently inside a worker's ServeConnection; Stop() closes
  /// them to unblock sessions stuck on a silent or slow client.
  /// LOCK ORDER: acquired with queue_mu_ already held in the dequeue
  /// path, so active_mu_ nests inside queue_mu_ — never the reverse.
  Mutex active_mu_ RSR_ACQUIRED_AFTER(queue_mu_);
  std::set<net::ByteStream*> active_ RSR_GUARDED_BY(active_mu_);
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_SYNC_SERVER_H_
