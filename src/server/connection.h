// One served connection as a sans-IO state machine.
//
// Each protocol endpoint is a PartySession that consumes messages and
// yields messages (recon/session.h); Connection applies the same idea one
// layer up. It consumes decoded frames plus the two events a transport can
// raise (the read side ended; the idle deadline passed) and yields the
// frames to send. Everything a connection decides is here, written once
// for both hosts:
//
//   * opening-verb dispatch: "@hello" (host Bob against the pinned
//     canonical snapshot), "@pull" (host Alice for a replica's repair),
//     "@log-fetch" (one "@log-batch"), "@stats" (one registry rendering);
//     anything else is answered with "@reject";
//   * snapshot and replica_seq pinning at the opening frame;
//   * the Bob and Alice pumps, with the max_deliveries guard and a quiet
//     control plane during the protocol phase;
//   * the drain after a reply, trace adoption, the session span, and the
//     one ServerObs::Settle record per connection.
//
// A driver owns the socket: it feeds frames in, sends what comes out in
// order, reports a failed send via OnTransportFailed(), flushes and closes
// once done(), and finally calls Close() with the byte counts. SyncServer
// drives it over a blocking FramedStream, AsyncSyncServer from its epoll
// shards. Not thread-safe: one driver thread per connection. See
// DESIGN.md §6.2.

#ifndef RSR_SERVER_CONNECTION_H_
#define RSR_SERVER_CONNECTION_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_context.h"
#include "recon/protocol.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "server/host_core.h"
#include "server/sketch_store.h"
#include "transport/message.h"

namespace rsr {
namespace server {

class Connection {
 public:
  /// Counts the accept and opens the connection's span.
  explicit Connection(HostCore* host);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// One decoded frame from the peer; returns the frames to send.
  std::vector<transport::Message> OnFrame(transport::Message message);

  /// The read side ended: `clean` for a close between frames, otherwise
  /// `error` names the failure (corrupt or truncated frame, transport
  /// error). A live Bob session ships a failure "@result" (the peer may
  /// only have half-closed); a pull ends — successfully iff `clean`.
  std::vector<transport::Message> OnStreamEnd(bool clean,
                                              recon::SessionError error);

  /// The idle deadline passed: OnStreamEnd(kTransportClosed), counted as
  /// an idle timeout.
  std::vector<transport::Message> OnIdle();

  /// A frame this connection produced could not be sent (or the host is
  /// tearing the connection down): a live session or an undelivered reply
  /// fails, and the connection is done.
  void OnTransportFailed();

  /// True once the driver should flush what it was given and close.
  bool done() const { return phase_ == Phase::kDone; }

  /// Settles the connection exactly once: the ServerObs::Settle record
  /// and the span's outcome. A session still live is settled as failed.
  void Close(size_t bytes_in, size_t bytes_out);

 private:
  enum class Phase {
    kOpening,   ///< Awaiting the opening verb.
    kBob,       ///< "@hello": Bob's PartySession pumping protocol frames.
    kAlice,     ///< "@pull": Alice's PartySession pumping until the close.
    kDraining,  ///< Reply shipped; discarding until the peer closes.
    kDone,      ///< Nothing more to say; flush and close.
  };

  std::vector<transport::Message> Open(transport::Message message);
  std::vector<transport::Message> Hello(const transport::Message& message);
  std::vector<transport::Message> Pull(const transport::Message& message);
  std::vector<transport::Message> LogFetch(const transport::Message& message);
  std::vector<transport::Message> PumpBob(transport::Message message);
  std::vector<transport::Message> PumpAlice(transport::Message message);

  /// Answers with "@reject" (reason plus the host's protocol list).
  std::vector<transport::Message> Reject(std::string reason);
  /// Instantiates `name` from the host's registry; null if unknown.
  std::unique_ptr<recon::Reconciler> Negotiate(const std::string& name) const;
  /// The connection carries a counted session from here on.
  void BeginSession(std::string protocol);
  /// Adopts the inbound trace context (deriving this host's span id with
  /// `salt`) or mints a fresh root trace when tracing is on and none
  /// arrived.
  void AdoptTrace(const obs::TraceContext& inbound, uint64_t salt);
  /// Ships the session's accept frame and its opening frames, then pumps
  /// in `phase`.
  std::vector<transport::Message> StartPump(Phase phase,
                                            transport::Message accept);
  /// Ships a one-frame reply (`@stats`, `@log-batch`) and drains.
  std::vector<transport::Message> Reply(transport::Message reply);
  /// Ends the Bob pump: takes its result, applies `pump_error`, ships
  /// "@result" and drains.
  void FinishBob(recon::SessionError pump_error,
                 std::vector<transport::Message>* out);
  /// Records the session's outcome and wall time.
  void Settled(bool success);
  /// Appends `message` to `out`, counting it on the span.
  void Emit(transport::Message message, std::vector<transport::Message>* out);

  HostCore* const host_;
  obs::SessionSpan span_;
  Phase phase_ = Phase::kOpening;

  /// The canonical generation a session is pinned to (kept alive here so
  /// the session's sketch provider stays valid under ApplyUpdate).
  std::shared_ptr<const SketchSnapshot> snapshot_;
  std::unique_ptr<recon::PartySession> session_;
  bool want_result_set_ = true;
  size_t deliveries_ = 0;
  size_t drained_ = 0;

  // Outcome, settled into the host's metrics once, at Close().
  std::string protocol_;
  std::chrono::steady_clock::time_point session_start_;
  bool session_finished_ = false;
  bool success_ = false;
  double wall_seconds_ = 0.0;
  bool rejected_ = false;
  bool timed_out_ = false;
  bool closed_ = false;
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_CONNECTION_H_
