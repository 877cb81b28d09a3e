#include "server/connection.h"

#include <utility>

#include "net/frame.h"
#include "server/handshake.h"

namespace rsr {
namespace server {

namespace {

using recon::SessionError;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Role salts separating the server-side span ids derived from one
// inbound context (a "@hello" session and the "@pull" it may trigger on
// another host must not collide).
constexpr uint64_t kHelloSpanSalt = 0x73657276'68656c6fULL;    // "servhelo"
constexpr uint64_t kLogFetchSpanSalt = 0x73657276'6c6f6766ULL;  // "servlogf"
constexpr uint64_t kPullSpanSalt = 0x73657276'70756c6cULL;      // "servpull"

}  // namespace

Connection::Connection(HostCore* host)
    : host_(host), span_(host->obs_.trace_sink(), "sync-session") {
  host_->obs_.OnAccepted();
  span_.SetSampling(&host_->options_.trace_sampling,
                    host_->obs_.span_emitted(), host_->obs_.span_dropped());
  span_.BeginPhase("handshake");
}

std::vector<transport::Message> Connection::OnFrame(
    transport::Message message) {
  span_.AddFrameIn(net::FrameBytes(message));
  switch (phase_) {
    case Phase::kOpening:
      return Open(std::move(message));
    case Phase::kBob:
      return PumpBob(std::move(message));
    case Phase::kAlice:
      return PumpAlice(std::move(message));
    case Phase::kDraining:
      // Post-reply traffic is discarded, bounded like a session pump.
      if (++drained_ > host_->options_.max_deliveries) phase_ = Phase::kDone;
      return {};
    case Phase::kDone:
      return {};
  }
  return {};
}

std::vector<transport::Message> Connection::OnStreamEnd(
    bool clean, SessionError error) {
  std::vector<transport::Message> out;
  switch (phase_) {
    case Phase::kBob:
      // Clean EOF between frames maps to kTransportClosed, EOF inside one
      // to kMalformedMessage; the result still goes out, for a peer that
      // only half-closed.
      FinishBob(error != SessionError::kNone ? error
                                             : SessionError::kTransportClosed,
                &out);
      break;
    case Phase::kAlice:
      // Alice's side has no terminal frame of its own (one-shot protocols
      // end with Alice silent and Bob done), so the puller's clean close
      // IS the end of the pull.
      Settled(clean);
      break;
    case Phase::kOpening:  // nothing usable arrived; no one to reject
    case Phase::kDraining:
    case Phase::kDone:
      break;
  }
  phase_ = Phase::kDone;
  return out;
}

std::vector<transport::Message> Connection::OnIdle() {
  timed_out_ = true;
  return OnStreamEnd(/*clean=*/false, SessionError::kTransportClosed);
}

void Connection::OnTransportFailed() {
  switch (phase_) {
    case Phase::kBob:
    case Phase::kAlice:
      Settled(false);
      break;
    case Phase::kDraining:
      success_ = false;  // the reply never fully left
      break;
    case Phase::kOpening:
    case Phase::kDone:
      break;
  }
  phase_ = Phase::kDone;
}

void Connection::Close(size_t bytes_in, size_t bytes_out) {
  if (closed_) return;
  if (phase_ == Phase::kBob || phase_ == Phase::kAlice) OnTransportFailed();
  closed_ = true;
  ServerObs::Settle settle;
  settle.session_counted = session_finished_;
  settle.protocol = protocol_;
  settle.success = success_;
  settle.wall_seconds = wall_seconds_;
  settle.rejected = rejected_;
  settle.timed_out = timed_out_;
  settle.bytes_in = bytes_in;
  settle.bytes_out = bytes_out;
  host_->obs_.OnClosed(settle);
  if (rejected_) {
    span_.set_outcome("rejected");
  } else if (session_finished_ && success_) {
    span_.set_outcome("ok");
  } else if (timed_out_) {
    span_.set_outcome("idle-timeout");
  } else {
    span_.set_outcome(session_finished_ ? "fail" : "never-started");
  }
  span_.Finish();
}

std::vector<transport::Message> Connection::Open(transport::Message message) {
  // Admin and replication verbs claim the whole connection before any
  // "@hello".
  if (message.label == kStatsLabel) {
    BeginSession(kStatsLabel);
    return Reply(EncodeStatsReply(host_->RenderMetrics()));
  }
  if (message.label == kLogFetchLabel) return LogFetch(message);
  if (message.label == kPullLabel) return Pull(message);
  return Hello(message);
}

std::vector<transport::Message> Connection::Hello(
    const transport::Message& message) {
  HelloFrame hello;
  if (!DecodeHello(message, &hello)) {
    return Reject("expected a well-formed " + std::string(kHelloLabel) +
                  " frame, got \"" + message.label + "\"");
  }
  const std::unique_ptr<recon::Reconciler> protocol =
      Negotiate(hello.protocol);
  if (protocol == nullptr) {
    return Reject("unknown protocol \"" + hello.protocol + "\"");
  }
  BeginSession(hello.protocol);
  AdoptTrace(hello.trace, kHelloSpanSalt);
  want_result_set_ = hello.want_result_set;
  // Pin the session to one immutable canonical generation: the snapshot
  // supplies both the point set and, when caching is on, the precomputed
  // sketches; the replication position comes from the same locked view.
  const HostCore::Pinned pinned = host_->Pin();
  snapshot_ = pinned.snapshot;
  session_ = protocol->MakeBobSession(snapshot_->points(), snapshot_.get());

  AcceptFrame ack;
  ack.protocol = hello.protocol;
  ack.server_set_size = snapshot_->size();
  ack.will_send_result_set = hello.want_result_set;
  ack.generation = snapshot_->generation();
  ack.replica_seq = pinned.seq;
  std::vector<transport::Message> out =
      StartPump(Phase::kBob, EncodeAccept(ack));
  if (session_->IsDone()) FinishBob(SessionError::kNone, &out);
  return out;
}

std::vector<transport::Message> Connection::Pull(
    const transport::Message& message) {
  PullFrame pull;
  if (!DecodePull(message, &pull)) {
    return Reject("malformed " + std::string(kPullLabel) + " frame");
  }
  const std::unique_ptr<recon::Reconciler> protocol = Negotiate(pull.protocol);
  if (protocol == nullptr) {
    return Reject("unknown protocol \"" + pull.protocol + "\"");
  }
  BeginSession(std::string(kPullLabel) + ":" + pull.protocol);
  AdoptTrace(pull.trace, kPullSpanSalt);
  const HostCore::Pinned pinned = host_->Pin();
  snapshot_ = pinned.snapshot;
  // The puller runs Bob; this host is Alice — the direction that moves the
  // PULLER's set toward this host's (see server/handshake.h).
  session_ = protocol->MakeAliceSession(snapshot_->points());

  PullAcceptFrame ack;
  ack.protocol = pull.protocol;
  ack.server_set_size = snapshot_->size();
  ack.seq = pinned.seq;
  ack.generation = snapshot_->generation();
  ack.dirty = pinned.dirty;
  return StartPump(Phase::kAlice, EncodePullAccept(ack));
}

std::vector<transport::Message> Connection::LogFetch(
    const transport::Message& message) {
  LogFetchFrame fetch;
  if (!DecodeLogFetch(message, &fetch)) {
    return Reject("malformed " + std::string(kLogFetchLabel) + " frame");
  }
  BeginSession(kLogFetchLabel);
  AdoptTrace(fetch.trace, kLogFetchSpanSalt);
  return Reply(EncodeLogBatch(host_->LogBatch(fetch),
                              host_->options_.context.universe));
}

std::vector<transport::Message> Connection::PumpBob(
    transport::Message message) {
  std::vector<transport::Message> out;
  if (IsControlLabel(message.label)) {
    // The control plane is quiet during the protocol phase.
    FinishBob(SessionError::kUnexpectedMessage, &out);
    return out;
  }
  if (++deliveries_ > host_->options_.max_deliveries) {
    FinishBob(SessionError::kStalled, &out);
    return out;
  }
  for (transport::Message& reply : session_->OnMessage(std::move(message))) {
    Emit(std::move(reply), &out);
  }
  if (session_->IsDone()) FinishBob(SessionError::kNone, &out);
  return out;
}

std::vector<transport::Message> Connection::PumpAlice(
    transport::Message message) {
  std::vector<transport::Message> out;
  if (IsControlLabel(message.label) ||
      ++deliveries_ > host_->options_.max_deliveries) {
    Settled(false);
    phase_ = Phase::kDone;
    return out;
  }
  for (transport::Message& reply : session_->OnMessage(std::move(message))) {
    Emit(std::move(reply), &out);
  }
  // A hostile or broken puller fails Alice (e.g. an out-of-range request):
  // the pull is over.
  if (session_->IsDone() && !session_->TakeResult().success) {
    Settled(false);
    phase_ = Phase::kDone;
  }
  return out;
}

std::vector<transport::Message> Connection::Reject(std::string reason) {
  RejectFrame reject;
  reject.reason = std::move(reason);
  reject.protocols = host_->registry_->ListProtocols();
  rejected_ = true;
  phase_ = Phase::kDone;
  std::vector<transport::Message> out;
  Emit(EncodeReject(reject), &out);
  return out;
}

std::unique_ptr<recon::Reconciler> Connection::Negotiate(
    const std::string& name) const {
  if (!host_->registry_->Contains(name)) return nullptr;
  return host_->registry_->Create(name, host_->options_.context,
                                  host_->options_.params);
}

void Connection::BeginSession(std::string protocol) {
  protocol_ = std::move(protocol);
  session_start_ = std::chrono::steady_clock::now();
  span_.set_protocol(protocol_);
}

void Connection::AdoptTrace(const obs::TraceContext& inbound, uint64_t salt) {
  if (!span_.active()) return;
  obs::TraceContext ctx = inbound;
  uint64_t parent = 0;
  if (ctx.valid()) {
    parent = ctx.span_id;
    ctx.span_id = obs::DeriveSpanId(ctx, salt);
  } else {
    // No inbound context (an old peer, or tracing off at the caller):
    // the span still gets identity, as the root of its own trace.
    ctx = host_->trace_gen_.NewTrace();
  }
  span_.SetTrace(ctx, parent);
}

std::vector<transport::Message> Connection::StartPump(
    Phase phase, transport::Message accept) {
  std::vector<transport::Message> out;
  Emit(std::move(accept), &out);
  span_.BeginPhase("rounds");
  phase_ = phase;
  for (transport::Message& opening : session_->Start()) {
    Emit(std::move(opening), &out);
  }
  return out;
}

std::vector<transport::Message> Connection::Reply(transport::Message reply) {
  span_.BeginPhase("result");
  Settled(true);
  // Wait for the peer to close rather than racing it with unread bytes
  // queued (closing then would reset the connection and could discard the
  // reply in flight).
  phase_ = Phase::kDraining;
  std::vector<transport::Message> out;
  Emit(std::move(reply), &out);
  return out;
}

void Connection::FinishBob(SessionError pump_error,
                           std::vector<transport::Message>* out) {
  recon::ReconResult result = session_->TakeResult();
  if (pump_error != SessionError::kNone) {
    result.success = false;
    if (result.error == SessionError::kNone) result.error = pump_error;
  }
  Settled(result.success);
  span_.BeginPhase("result");
  ResultFrame frame;
  frame.has_set = want_result_set_ && result.success;
  frame.result = std::move(result);
  if (!frame.has_set) frame.result.bob_final.clear();
  Emit(EncodeResult(frame, host_->options_.context.universe), out);
  phase_ = Phase::kDraining;
}

void Connection::Settled(bool success) {
  session_finished_ = true;
  success_ = success;
  wall_seconds_ = SecondsSince(session_start_);
}

void Connection::Emit(transport::Message message,
                      std::vector<transport::Message>* out) {
  span_.AddFrameOut(net::FrameBytes(message));
  out->push_back(std::move(message));
}

}  // namespace server
}  // namespace rsr
