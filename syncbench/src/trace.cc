#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "net/frame.h"
#include "stats.h"

namespace syncbench {
namespace {

std::atomic<uint64_t> next_span_id{1};

}  // namespace

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::Open(const char* name, uint64_t sync_id) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.sync_id = sync_id;
  span.start = Now();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
}

void SpanLog::Close() {
  if (!enabled_ || open_.empty()) return;
  spans_[open_.back()].end = Now();
  open_.pop_back();
}

void SpanLog::Add(const char* name, double start, double end,
                  uint64_t sync_id) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.sync_id = sync_id;
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
}

SpanLog* Tracer::NewLog() {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.emplace_back(enabled_);
  return &logs_.back();
}

std::vector<Span> Tracer::Merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const SpanLog& log : logs_) {
    all.insert(all.end(), log.spans().begin(), log.spans().end());
  }
  return all;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : Merged()) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"sync_id\":%llu,\"start\":%.9f,\"end\":%.9f}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.sync_id), s.start, s.end);
  }
  return std::fclose(out) == 0;
}

std::map<std::string, SpanStats> Summarize(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      double cursor = s.start;
      for (const auto& [a, b] : kids) {
        const double lo = std::max(a, cursor);
        const double hi = std::min(b, s.end);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    auto& [durations, selfs] = by_name[s.name];
    durations.push_back(1e3 * (s.end - s.start));
    selfs.push_back(1e3 * (s.end - s.start - covered));
  }
  std::map<std::string, SpanStats> out;
  for (auto& [name, lists] : by_name) {
    SpanStats stats;
    stats.count = lists.first.size();
    stats.median_ms = Percentile(lists.first, 0.5);
    stats.median_self_ms = Percentile(lists.second, 0.5);
    out[name] = stats;
  }
  return out;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(1e3 * (s.end - s.start));
  }
  return out;
}

std::map<uint64_t, double> SumPerSync(const std::vector<Span>& spans,
                                      const std::string& name) {
  std::map<uint64_t, double> out;
  for (const Span& s : spans) {
    if (s.name == name) out[s.sync_id] += 1e3 * (s.end - s.start);
  }
  return out;
}

MeteredStream::MeteredStream(std::unique_ptr<rsr::net::ByteStream> inner,
                             SpanLog* log, uint64_t sync_id, bool keep_bytes)
    : inner_(std::move(inner)), log_(log), sync_id_(sync_id) {
  sent_.keep = keep_bytes;
  received_.keep = keep_bytes;
}

ptrdiff_t MeteredStream::Read(uint8_t* buf, size_t n) {
  ptrdiff_t got = 0;
  {
    ScopedSpan span(log_, "net.read", sync_id_);
    got = inner_->Read(buf, n);
  }
  if (got > 0) received_.Feed(buf, static_cast<size_t>(got), Now());
  return got;
}

bool MeteredStream::Write(const uint8_t* data, size_t n) {
  bool ok = false;
  {
    ScopedSpan span(log_, "net.write", sync_id_);
    ok = inner_->Write(data, n);
  }
  if (ok) sent_.Feed(data, n, Now());
  return ok;
}

void MeteredStream::Direction::Feed(const uint8_t* data, size_t n,
                                    double now) {
  if (keep) raw.insert(raw.end(), data, data + n);
  constexpr size_t kHeader = rsr::net::kFrameHeaderBytes;
  static_assert(kHeader == sizeof(header), "frame header layout changed");
  while (n > 0) {
    if (header_have < kHeader) {
      const size_t take = std::min(n, kHeader - header_have);
      std::copy(data, data + take, header + header_have);
      header_have += take;
      data += take;
      n -= take;
      frame_bytes += take;
      if (header_have < kHeader) return;
      // Little-endian label (uint16 at 5) and payload (uint32 at 7)
      // lengths.
      label_left = static_cast<size_t>(header[5]) |
                   (static_cast<size_t>(header[6]) << 8);
      payload_left = static_cast<uint64_t>(header[7]) |
                     (static_cast<uint64_t>(header[8]) << 8) |
                     (static_cast<uint64_t>(header[9]) << 16) |
                     (static_cast<uint64_t>(header[10]) << 24);
      label.clear();
    }
    if (label_left > 0) {
      const size_t take = std::min(n, label_left);
      label.append(reinterpret_cast<const char*>(data), take);
      label_left -= take;
      data += take;
      n -= take;
      frame_bytes += take;
      if (label_left > 0) return;
    }
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(n, payload_left));
    payload_left -= take;
    data += take;
    n -= take;
    frame_bytes += take;
    if (payload_left > 0) return;
    frames.push_back(FrameEvent{std::move(label), frame_bytes, now});
    label.clear();
    header_have = 0;
    frame_bytes = 0;
  }
}

}  // namespace syncbench
