// Spans and byte metering recorded by the benchmark around its own calls
// into the library's layers.
//
// Nothing here instruments the library: every span brackets a call the
// benchmark itself makes into a layer's public function (TcpStream::Connect,
// SyncClient::Sync, ReplicaNode::SyncWithPeer, SketchStore construction, a
// session's Start, ...), or an interval between two frame events the
// benchmark observed on the client's byte stream. Spans are kept in memory
// per thread and written out when the run ends.

#ifndef SYNCBENCH_TRACE_H_
#define SYNCBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/byte_stream.h"

namespace syncbench {

/// Seconds on the steady clock.
double Now();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span.
  uint64_t sync_id = 0;  ///< The operation the span belongs to.
};

/// One thread's spans. Open/Close nest: a span opened while another is
/// open becomes its child. A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void Open(const char* name, uint64_t sync_id);
  void Close();
  /// Records an interval measured elsewhere as a child of the open span.
  void Add(const char* name, double start, double end, uint64_t sync_id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII Open/Close; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t sync_id)
      : log_(log != nullptr && log->enabled() ? log : nullptr) {
    if (log_ != nullptr) log_->Open(name, sync_id);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Owns every thread's SpanLog.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// A fresh log for one thread. Thread-safe; the log lives as long as
  /// the tracer.
  SpanLog* NewLog();
  std::vector<Span> Merged() const;
  /// Writes every span as one JSON object per line. False on I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::deque<SpanLog> logs_;
};

struct SpanStats {
  size_t count = 0;
  double median_ms = 0.0;
  double median_self_ms = 0.0;  ///< Duration minus the union of children.
};

/// Per span name: count, median duration and median self time.
std::map<std::string, SpanStats> Summarize(const std::vector<Span>& spans);

/// Durations (ms) of the spans named `name`.
std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name);

/// Per operation: the summed duration (ms) of its spans named `name`.
std::map<uint64_t, double> SumPerSync(const std::vector<Span>& spans,
                                      const std::string& name);

/// A complete frame seen on a metered stream.
struct FrameEvent {
  std::string label;
  size_t bytes = 0;   ///< Header, label and payload.
  double done = 0.0;  ///< When its last byte was written or read.
};

/// Byte stream the benchmark's clients sync through. It forwards to the
/// real stream, follows the frame headers (net/frame.h layout) in each
/// direction to time every frame's completion, and, with a log, records a
/// span around every Read and Write it forwards. With keep_bytes it also
/// keeps the raw bytes, for replaying the frame codec afterwards.
class MeteredStream : public rsr::net::ByteStream {
 public:
  MeteredStream(std::unique_ptr<rsr::net::ByteStream> inner, SpanLog* log,
                uint64_t sync_id, bool keep_bytes);

  ptrdiff_t Read(uint8_t* buf, size_t n) override;
  bool Write(const uint8_t* data, size_t n) override;
  void Close() override { inner_->Close(); }

  const std::vector<FrameEvent>& sent() const { return sent_.frames; }
  const std::vector<FrameEvent>& received() const { return received_.frames; }
  std::vector<uint8_t> TakeSentBytes() { return std::move(sent_.raw); }
  std::vector<uint8_t> TakeReceivedBytes() { return std::move(received_.raw); }

 private:
  /// Follows frame boundaries in one direction.
  struct Direction {
    void Feed(const uint8_t* data, size_t n, double now);
    bool keep = false;
    std::vector<uint8_t> raw;
    std::vector<FrameEvent> frames;
    uint8_t header[19] = {};
    size_t header_have = 0;
    std::string label;
    size_t label_left = 0;
    uint64_t payload_left = 0;
    size_t frame_bytes = 0;
  };

  std::unique_ptr<rsr::net::ByteStream> inner_;
  SpanLog* log_;
  uint64_t sync_id_;
  Direction sent_;
  Direction received_;
};

}  // namespace syncbench

#endif  // SYNCBENCH_TRACE_H_
