// Non-blocking framed connection for the async serving layer.
//
// AsyncFramedConn carries transport::Message frames (the RSF1 wire format
// of net/frame.h, bit accounting included) over a NonBlockingStream. It is
// the event-driven sibling of FramedStream: instead of blocking for a
// whole frame, the owner calls OnReadable() when the fd is readable (the
// conn drains the socket into the incremental FrameDecoder), pops complete
// messages with Next(), queues outgoing messages with Send() (encoded into
// an outbound buffer, flushed as far as the socket allows), and calls
// Flush() when the fd is writable. wants_write() tells the event loop
// whether EPOLLOUT interest is needed.
//
// Error mapping is identical to FramedStream: a clean EOF between frames
// is kClosed / SessionError::kTransportClosed, EOF inside a frame is
// kError / kMalformedMessage (a truncated frame), a corrupt frame is
// kError with the decoder's error, and a transport failure is kError /
// kTransportClosed. Once failed, a conn stays failed.
//
// Re-entrancy invariant (DESIGN.md §8): all calls happen on the owning
// event-loop thread; Send() may be called from inside the handling of a
// message popped by Next() — replies are appended to the outbound buffer
// in call order, so the peer observes exactly the sequence a blocking
// FramedStream would have produced.

#ifndef RSR_NET_ASYNC_FRAME_H_
#define RSR_NET_ASYNC_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/byte_stream.h"
#include "net/frame.h"
#include "recon/protocol.h"
#include "transport/message.h"

namespace rsr {
namespace net {

class AsyncFramedConn {
 public:
  explicit AsyncFramedConn(NonBlockingStream* stream, FrameLimits limits = {})
      : stream_(stream), decoder_(limits) {}

  AsyncFramedConn(const AsyncFramedConn&) = delete;
  AsyncFramedConn& operator=(const AsyncFramedConn&) = delete;

  enum class IoStatus {
    kOk,      ///< Progress made; retry on the next readiness event.
    kClosed,  ///< Clean EOF between frames (error() == kTransportClosed).
    kError,   ///< Corrupt frame, truncated EOF, or transport failure.
  };

  /// Drains the socket into the frame decoder until would-block or EOF.
  /// Complete frames buffered before an EOF are still available via
  /// Next() — pop them before acting on the returned status.
  IoStatus OnReadable();

  enum class NextStatus {
    kMessage,  ///< *out holds the next decoded message.
    kIdle,     ///< No complete frame buffered.
    kError,    ///< Corrupt frame; see error().
  };

  /// Pops the next fully decoded message, in arrival order.
  NextStatus Next(transport::Message* out);

  /// Encodes `message` into the outbound buffer and opportunistically
  /// flushes. False only once the WRITE side has failed (the message is
  /// dropped, as a blocking Send to a dead peer would be). A read-side
  /// end — clean EOF or a decode error — does not block sending: a peer
  /// that half-closed after its last frame still gets its replies and
  /// result, exactly as it would from the blocking FramedStream host.
  bool Send(const transport::Message& message);

  /// Writes buffered output until drained or would-block. kError on a
  /// transport failure.
  IoStatus Flush();

  /// True while flushed-out bytes remain buffered — the event loop should
  /// keep kWritable interest exactly while this holds.
  bool wants_write() const { return out_cursor_ < outbox_.size(); }

  /// True until the write side fails. Distinct from error(): a clean
  /// read-side EOF leaves the outbound direction healthy, and a buffered
  /// result is still worth flushing.
  bool write_ok() const { return !write_failed_; }

  /// The SessionError of the first failure (kNone while healthy, also
  /// kTransportClosed after a clean close).
  recon::SessionError error() const { return error_; }

  size_t bytes_sent() const { return bytes_sent_; }
  size_t bytes_received() const { return bytes_received_; }

 private:
  void FailTransport();

  NonBlockingStream* stream_;
  FrameDecoder decoder_;
  std::vector<uint8_t> outbox_;
  size_t out_cursor_ = 0;  ///< Prefix of outbox_ already written.
  recon::SessionError error_ = recon::SessionError::kNone;
  bool peer_closed_ = false;   ///< Read side ended (EOF seen).
  /// Terminal read-side status, replayed on re-entry: level-triggered
  /// EPOLLHUP/ERR re-delivers events, and a reset connection must keep
  /// reporting kError rather than degrade to kClosed (both share
  /// error_ == kTransportClosed).
  IoStatus read_end_ = IoStatus::kOk;
  bool write_failed_ = false;  ///< Write side failed; sends are dropped.
  size_t bytes_sent_ = 0;
  size_t bytes_received_ = 0;
};

}  // namespace net
}  // namespace rsr

#endif  // RSR_NET_ASYNC_FRAME_H_
