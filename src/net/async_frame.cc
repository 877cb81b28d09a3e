#include "net/async_frame.h"

namespace rsr {
namespace net {

using recon::SessionError;

void AsyncFramedConn::FailTransport() {
  if (error_ == SessionError::kNone) error_ = SessionError::kTransportClosed;
}

AsyncFramedConn::IoStatus AsyncFramedConn::OnReadable() {
  if (error_ == SessionError::kMalformedMessage) return IoStatus::kError;
  if (peer_closed_) return read_end_;
  uint8_t chunk[4096];
  for (;;) {
    const ptrdiff_t r = stream_->ReadSome(chunk, sizeof(chunk));
    if (r > 0) {
      decoder_.Feed(chunk, static_cast<size_t>(r));
      bytes_received_ += static_cast<size_t>(r);
      continue;
    }
    if (r == kWouldBlock) return IoStatus::kOk;
    peer_closed_ = true;
    // at_frame_boundary, not mid_frame: the socket was drained to EOF
    // before the owner popped anything, so complete frames are usually
    // still queued — a final frame plus FIN in one readable event is a
    // clean close, not a truncated frame.
    if (r == 0 && decoder_.at_frame_boundary()) {
      FailTransport();
      read_end_ = IoStatus::kClosed;
      return read_end_;
    }
    // EOF inside a frame is a truncated frame; a read error is a dead
    // transport.
    if (error_ == SessionError::kNone) {
      error_ = r == 0 ? SessionError::kMalformedMessage
                      : SessionError::kTransportClosed;
    }
    read_end_ = IoStatus::kError;
    return read_end_;
  }
}

AsyncFramedConn::NextStatus AsyncFramedConn::Next(transport::Message* out) {
  switch (decoder_.Next(out)) {
    case FrameDecoder::Status::kFrame:
      return NextStatus::kMessage;
    case FrameDecoder::Status::kNeedMoreData:
      return NextStatus::kIdle;
    case FrameDecoder::Status::kError:
      error_ = decoder_.error();
      return NextStatus::kError;
  }
  return NextStatus::kError;  // unreachable
}

bool AsyncFramedConn::Send(const transport::Message& message) {
  // Only a dead WRITE side refuses: a clean read-side EOF (half-closing
  // peer) or a decode error still lets the server ship replies and the
  // @result over the intact outbound direction.
  if (write_failed_) return false;
  EncodeFrame(message, &outbox_);
  return Flush() != IoStatus::kError;
}

AsyncFramedConn::IoStatus AsyncFramedConn::Flush() {
  if (write_failed_) return IoStatus::kError;
  while (out_cursor_ < outbox_.size()) {
    const ptrdiff_t r = stream_->WriteSome(outbox_.data() + out_cursor_,
                                           outbox_.size() - out_cursor_);
    if (r == kWouldBlock) return IoStatus::kOk;
    if (r < 0) {
      write_failed_ = true;
      FailTransport();
      return IoStatus::kError;
    }
    out_cursor_ += static_cast<size_t>(r);
    bytes_sent_ += static_cast<size_t>(r);
  }
  // Fully drained: reclaim the buffer rather than letting the dead prefix
  // grow across a long session.
  outbox_.clear();
  out_cursor_ = 0;
  return IoStatus::kOk;
}

}  // namespace net
}  // namespace rsr
