#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "checks.h"
#include "geometry/grid.h"
#include "layers.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "recon/registry.h"
#include "replica/replica_node.h"
#include "server/async_sync_server.h"
#include "server/handshake.h"
#include "server/sync_client.h"
#include "stats.h"
#include "util/random.h"
#include "workload/churn.h"
#include "workload/generator.h"

namespace syncbench {

namespace net = rsr::net;
namespace recon = rsr::recon;
namespace replica = rsr::replica;
namespace server = rsr::server;
namespace workload = rsr::workload;
using rsr::Point;
using rsr::PointSet;

namespace {

// ------------------------------------------------------------ inputs

/// Seed of every input that must not vary with --seed:
///  * the client sets of the protocols whose decode failures depend on the
///    input (quadtree-adaptive, gap-lattice), and the canonical sets they
///    decode against, so every run fails exactly the same syncs and the
///    failed share is the same on every seed;
///  * the churn workload's initial set, whose cluster layout alone moved
///    its repair_diameter by a third between seeds.
/// --seed draws every other client set and the write batches.
constexpr uint64_t kFixedSeed = 20140622;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return MixPoint(seed * 0x100000001b3ULL + stream);
}

PointSet Cloud(const rsr::Universe& universe, size_t n, uint64_t seed) {
  workload::CloudSpec spec;
  spec.universe = universe;
  spec.n = n;
  spec.shape = workload::CloudShape::kClusters;
  rsr::Rng rng(seed);
  return workload::GenerateCloud(spec, &rng);
}

Point UniformPoint(const rsr::Universe& universe, rsr::Rng* rng) {
  Point p(static_cast<size_t>(universe.d));
  for (int64_t& c : p) {
    c = static_cast<int64_t>(rng->Below(static_cast<uint64_t>(universe.delta)));
  }
  return p;
}

/// Gaussian noise on every point plus `outliers` points replaced by fresh
/// uniform ones: the robust protocols' client.
PointSet NoisyReplica(const PointSet& base, const rsr::Universe& universe,
                      double noise, size_t outliers, uint64_t seed) {
  rsr::Rng rng(seed);
  PointSet replica;
  replica.reserve(base.size());
  for (const Point& p : base) {
    replica.push_back(workload::PerturbPoint(
        p, universe, workload::NoiseKind::kGaussian, noise, &rng));
  }
  for (size_t i = 0; i < outliers; ++i) {
    replica[rng.Below(replica.size())] = UniformPoint(universe, &rng);
  }
  return replica;
}

/// `changed` whole points replaced by fresh uniform ones: the exact-key
/// protocols' client, so no sketch is sized to the whole set.
PointSet EditedReplica(const PointSet& base, const rsr::Universe& universe,
                       size_t changed, uint64_t seed) {
  rsr::Rng rng(seed);
  PointSet replica = base;
  for (size_t i = 0; i < changed; ++i) {
    replica[rng.Below(replica.size())] = UniformPoint(universe, &rng);
  }
  return replica;
}

// --------------------------------------------------------- operations

enum class Check { kExact, kQuadtree, kGap };

Check CheckFor(const std::string& protocol) {
  if (protocol == "quadtree" || protocol == "quadtree-adaptive") {
    return Check::kQuadtree;
  }
  if (protocol == "gap-lattice") return Check::kGap;
  return Check::kExact;
}

/// How an op's client set departs from the canonical set.
enum class Drift { kNoisy, kEdited };

/// One sync of a round: which protocol, which client set, which host.
struct Op {
  std::string protocol;
  size_t host = 0;
  Drift drift = Drift::kNoisy;
  /// Input stream of the op; with `fixed` the client set is the same on
  /// every round and every --seed.
  uint64_t stream = 0;
  bool fixed = false;
};

/// Draws client sets. A sync's client set is a function of its op and its
/// index in the run: the client thread draws it just before the sync and
/// the checks after the window draw it again, so no pool of client sets
/// sits in the process's memory. A fixed op gets the same set every round;
/// every other op gets a fresh set per sync, drawn from --seed.
struct ClientSource {
  const PointSet* base = nullptr;
  rsr::Universe universe;
  double noise = 1.0;
  size_t outliers = 0;  ///< kNoisy: points replaced by uniform outliers.
  size_t changed = 0;   ///< kEdited: whole points replaced.
  uint64_t seed = 0;

  PointSet Make(const Op& op, uint64_t index) const {
    const uint64_t s = op.fixed ? SubSeed(kFixedSeed, op.stream)
                                : SubSeed(SubSeed(seed, op.stream), index);
    return op.drift == Drift::kNoisy
               ? NoisyReplica(*base, universe, noise, outliers, s)
               : EditedReplica(*base, universe, changed, s);
  }
};

/// Fixed part of one spooled sync record.
struct RecordHeader {
  uint64_t index = 0;  ///< Sync index in the run.
  uint32_t op = 0;
  uint32_t frames = 0;
  uint64_t replica_seq = 0;
  uint64_t decoded_entries = 0;
  uint64_t attempts = 0;
  uint64_t points = 0;
  int32_t chosen_level = -1;
  int32_t error = 0;
  uint8_t handshake_ok = 0;
  uint8_t success = 0;
  double latency_ms = 0.0;
  double bytes = 0.0;
  double accept_wait_ms = 0.0;
  double result_wait_ms = 0.0;
};

struct SyncRecord {
  RecordHeader h;
  std::vector<uint64_t> result;  ///< S'_B, packed.
};

void FillOutcome(const server::SyncOutcome& outcome, RecordHeader* h) {
  h->handshake_ok = outcome.handshake_ok ? 1 : 0;
  h->success = outcome.result.success ? 1 : 0;
  h->error = static_cast<int32_t>(outcome.result.error);
  h->replica_seq = outcome.server_replica_seq;
  h->chosen_level = outcome.result.chosen_level;
  h->decoded_entries = outcome.result.decoded_entries;
  h->attempts = outcome.result.attempts;
  h->points = outcome.result.bob_final.size();
}

/// Hands out operation indices in rounds of `round_size`: once the
/// deadline has passed, the next round is not started, but every started
/// round is finished. A round size of 1 stops at the deadline.
class RoundDispenser {
 public:
  RoundDispenser(size_t round_size, double deadline)
      : round_size_(round_size), deadline_(deadline) {}

  bool Next(uint64_t* index) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return false;
    if (cursor_ % round_size_ == 0 && Now() >= deadline_) {
      stopped_ = true;
      return false;
    }
    *index = cursor_++;
    return true;
  }

 private:
  std::mutex mu_;
  const size_t round_size_;
  const double deadline_;
  uint64_t cursor_ = 0;
  bool stopped_ = false;
};

struct SyncLoopSpec {
  const std::vector<Op>* ops = nullptr;
  const ClientSource* clients = nullptr;
  std::vector<uint16_t> ports;
  server::SyncClientOptions client;
  size_t threads = 1;
  double deadline = 0.0;
  /// Stop only after a whole round of `ops`, so a run fails the same share
  /// of its syncs whatever its length; otherwise stop at the deadline.
  bool whole_rounds = true;
  Tracer* tracer = nullptr;
  std::string spool_prefix;
};

struct SyncLoopResult {
  double start = 0.0;
  double end = 0.0;
  std::vector<std::string> spool_files;
  /// Traced runs: the raw bytes of each first-round sync, by op.
  std::vector<CapturedSync> captured;
  /// CPU the client threads spent drawing client sets and spooling
  /// outputs; subtracted from the process's CPU for cpu_ms_per_sync.
  double harness_cpu_s = 0.0;
  bool spool_ok = true;
};

double FrameDone(const std::vector<FrameEvent>& frames, const char* label) {
  for (const FrameEvent& f : frames) {
    if (f.label == label) return f.done;
  }
  return 0.0;
}

/// Closed loop: each thread draws the op's client set, dials a fresh
/// connection and runs SyncClient::Sync to the decoded @result. Outputs go
/// to a per-thread spool file so the window holds no growing state.
SyncLoopResult RunSyncLoop(const SyncLoopSpec& spec) {
  const size_t round = spec.ops->size();
  RoundDispenser dispenser(spec.whole_rounds ? round : 1, spec.deadline);
  SyncLoopResult out;
  out.captured.resize(round);
  std::mutex captured_mu;
  std::atomic<bool> spool_ok{true};
  std::vector<double> harness_cpu(spec.threads, 0.0);
  for (size_t t = 0; t < spec.threads; ++t) {
    out.spool_files.push_back(spec.spool_prefix + "-" + std::to_string(t) +
                              ".bin");
  }
  std::vector<SpanLog*> logs;
  for (size_t t = 0; t < spec.threads; ++t) {
    logs.push_back(spec.tracer->NewLog());
  }
  const bool traced = spec.tracer->enabled();

  auto body = [&](size_t t) {
    SpanLog* log = logs[t];
    FILE* spool = std::fopen(out.spool_files[t].c_str(), "wb");
    if (spool == nullptr) {
      spool_ok = false;
      return;
    }
    const server::SyncClient client(spec.client);
    uint64_t index = 0;
    while (dispenser.Next(&index)) {
      const uint32_t op_index = static_cast<uint32_t>(index % round);
      const Op& op = (*spec.ops)[op_index];
      const uint64_t sync_id = index + 1;
      const bool capture = traced && index < round;
      RecordHeader h;
      h.index = index;
      h.op = op_index;
      double cpu0 = ThreadCpuSeconds();
      const PointSet client_set = spec.clients->Make(op, index);
      harness_cpu[t] += ThreadCpuSeconds() - cpu0;
      server::SyncOutcome outcome;
      const double t0 = Now();
      double t1 = 0.0;  // Sync returned (or the dial failed)
      {
        ScopedSpan sync_span(log, "sync", sync_id);
        std::unique_ptr<net::TcpStream> tcp;
        {
          ScopedSpan span(log, "net.connect", sync_id);
          tcp = net::TcpStream::Connect("127.0.0.1", spec.ports[op.host]);
        }
        t1 = Now();
        if (tcp != nullptr) {
          MeteredStream stream(std::move(tcp), log, sync_id, capture);
          {
            ScopedSpan span(log, "client.sync", sync_id);
            outcome = client.Sync(&stream, op.protocol, client_set);
            t1 = Now();
            const double hello = FrameDone(stream.sent(), server::kHelloLabel);
            const double accept =
                FrameDone(stream.received(), server::kAcceptLabel);
            const double result =
                FrameDone(stream.received(), server::kResultLabel);
            const double last_sent =
                stream.sent().empty() ? 0.0 : stream.sent().back().done;
            if (hello > 0 && accept > 0) {
              h.accept_wait_ms = 1e3 * (accept - hello);
              log->Add("server.accept_wait", hello, accept, sync_id);
            }
            if (last_sent > 0 && result > 0) {
              h.result_wait_ms = 1e3 * (result - last_sent);
              log->Add("server.result_wait", last_sent, result, sync_id);
            }
          }
          size_t result_frame = 0;
          for (const FrameEvent& f : stream.received()) {
            if (f.label == server::kResultLabel) result_frame += f.bytes;
          }
          h.frames =
              static_cast<uint32_t>(stream.sent().size() +
                                    stream.received().size());
          h.bytes = static_cast<double>(outcome.bytes_sent +
                                        outcome.bytes_received -
                                        result_frame);
          if (capture) {
            std::lock_guard<std::mutex> lock(captured_mu);
            out.captured[op_index].sent = stream.TakeSentBytes();
            out.captured[op_index].received = stream.TakeReceivedBytes();
          }
        }
      }
      h.latency_ms = 1e3 * (t1 - t0);
      FillOutcome(outcome, &h);
      cpu0 = ThreadCpuSeconds();
      const std::vector<uint64_t> packed = PackAll(outcome.result.bob_final);
      if (std::fwrite(&h, sizeof(h), 1, spool) != 1 ||
          std::fwrite(packed.data(), sizeof(uint64_t), packed.size(),
                      spool) != packed.size()) {
        spool_ok = false;
      }
      harness_cpu[t] += ThreadCpuSeconds() - cpu0;
    }
    if (std::fclose(spool) != 0) spool_ok = false;
  };

  out.start = Now();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < spec.threads; ++t) threads.emplace_back(body, t);
  for (std::thread& thread : threads) thread.join();
  out.end = Now();
  for (double s : harness_cpu) out.harness_cpu_s += s;
  out.spool_ok = spool_ok.load();
  return out;
}

/// Reads every spooled record (and deletes the spool files).
bool ReadSpool(const std::vector<std::string>& files,
               const std::function<void(SyncRecord&&)>& visit) {
  bool ok = true;
  for (const std::string& path : files) {
    FILE* in = std::fopen(path.c_str(), "rb");
    if (in == nullptr) {
      ok = false;
      continue;
    }
    SyncRecord record;
    while (std::fread(&record.h, sizeof(record.h), 1, in) == 1) {
      record.result.resize(record.h.points);
      if (std::fread(record.result.data(), sizeof(uint64_t),
                     record.result.size(), in) != record.result.size()) {
        ok = false;
        break;
      }
      visit(std::move(record));
      record = SyncRecord{};
    }
    std::fclose(in);
    std::remove(path.c_str());
  }
  return ok;
}

// ------------------------------------------------------------ checking

/// What the checks need to judge one workload's syncs.
struct CheckContext {
  const std::vector<Op>* ops = nullptr;
  const ClientSource* clients = nullptr;
  GridView grid;
  double gap_r2 = 0.0;
};

/// Verdict on one sync: "" = correct; known_fault marks the
/// quadtree-adaptive decode failure the benchmark keeps as a failure.
std::string VerifySync(const CheckContext& ctx, const SyncRecord& record,
                       const Counts& canonical, bool* known_fault) {
  *known_fault = false;
  const Op& op = (*ctx.ops)[record.h.op];
  if (!record.h.handshake_ok) return "handshake failed";
  if (!record.h.success) {
    if (op.protocol == "quadtree-adaptive" && record.h.error == 0) {
      *known_fault = true;
      return "quadtree-adaptive: no decode at its chosen level";
    }
    return op.protocol + ": sync failed (" +
           recon::SessionErrorName(
               static_cast<recon::SessionError>(record.h.error)) +
           ")";
  }
  const std::vector<uint64_t> client =
      PackAll(ctx.clients->Make(op, record.h.index));
  switch (CheckFor(op.protocol)) {
    case Check::kExact:
      return CheckExact(client, record.result);
    case Check::kQuadtree:
      return CheckQuadtree(ctx.grid, record.h.chosen_level, client,
                           record.result, canonical);
    case Check::kGap:
      return CheckGap(client, record.result, ctx.gap_r2);
  }
  return "unknown check";
}

/// Running totals over a workload's operations.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, uint64_t> counts;

  void Fail(const std::string& reason, bool known_fault) {
    ++failed;
    ++counts["failed: " + reason];
    if (!known_fault) correct = false;
  }
};

/// Sync-side aggregates.
struct SyncStats {
  uint64_t syncs = 0;
  uint64_t ok = 0;
  std::vector<double> latency_ms;
  std::vector<double> accept_wait_ms;
  std::vector<double> result_wait_ms;
  double bytes = 0.0;
  double frames = 0.0;
  double attempts = 0.0;
  std::vector<double> diameters;
  std::vector<double> levels;
  std::vector<double> decoded;
  uint64_t adaptive_failed = 0;

  void Add(const Op& op, const SyncRecord& record, const std::string& reason,
           bool known_fault, Tally* tally) {
    ++syncs;
    ++tally->attempted;
    ++tally->counts["attempted: " + op.protocol];
    latency_ms.push_back(record.h.latency_ms);
    bytes += record.h.bytes;
    frames += record.h.frames;
    attempts += static_cast<double>(record.h.attempts);
    if (record.h.accept_wait_ms > 0) {
      accept_wait_ms.push_back(record.h.accept_wait_ms);
    }
    if (record.h.result_wait_ms > 0) {
      result_wait_ms.push_back(record.h.result_wait_ms);
    }
    if (!reason.empty()) {
      if (known_fault) ++adaptive_failed;
      tally->Fail(reason, known_fault);
      return;
    }
    ++ok;
    decoded.push_back(static_cast<double>(record.h.decoded_entries));
    if (CheckFor(op.protocol) == Check::kQuadtree) {
      diameters.push_back(CellDiameter(record.h.chosen_level));
      levels.push_back(record.h.chosen_level);
    }
  }
};

/// Set-up repeated `repeats` times; the median is setup_s. `prepare` runs
/// untimed before each attempt (tears down the previous hosts, copies the
/// inputs); `build` is timed and returns false when a host could not start.
double MedianSetup(int repeats, const std::function<void()>& prepare,
                   const std::function<bool()>& build, bool* started) {
  std::vector<double> times;
  *started = true;
  for (int r = 0; r < repeats; ++r) {
    prepare();
    const double t0 = Now();
    if (!build()) {
      *started = false;
      return 0.0;
    }
    times.push_back(Now() - t0);
  }
  return Percentile(times, 0.5);
}

std::unique_ptr<net::TcpListener> Loopback() {
  return net::TcpListener::Listen("127.0.0.1", 0);
}

/// Median of the hosts' rsr_sync_session_seconds over the protocols the
/// workload syncs (replication verbs excluded), in ms.
double SessionMedianMs(
    const std::vector<const rsr::obs::MetricsRegistry*>& registries,
    const std::vector<Op>& ops) {
  std::vector<std::string> protocols;
  for (const Op& op : ops) {
    if (std::find(protocols.begin(), protocols.end(), op.protocol) ==
        protocols.end()) {
      protocols.push_back(op.protocol);
    }
  }
  std::optional<rsr::obs::HistogramSnapshot> merged;
  for (const rsr::obs::MetricsRegistry* registry : registries) {
    for (const std::string& protocol : protocols) {
      std::optional<rsr::obs::HistogramSnapshot> snap =
          registry->SnapshotHistogram("rsr_sync_session_seconds",
                                      {{"protocol", protocol}});
      if (!snap.has_value()) continue;
      if (!merged.has_value()) {
        merged = std::move(snap);
        continue;
      }
      for (size_t i = 0; i < merged->buckets.size(); ++i) {
        merged->buckets[i] += snap->buckets[i];
      }
      merged->count += snap->count;
      merged->sum += snap->sum;
    }
  }
  return merged.has_value() ? 1e3 * merged->Quantile(0.5) : 0.0;
}

/// Runs `fn` on a new thread and waits for it. The per-layer replays run
/// this way: on the main thread, whose heap holds every input the harness
/// generated, the same Alice encode measured about 3x slower than on the
/// client threads of the measured window.
void OnFreshThread(const std::function<void()>& fn) {
  std::thread thread(fn);
  thread.join();
}

void Put(std::map<std::string, Metric>* metrics, const std::string& name,
         double value, const char* unit) {
  (*metrics)[name] = Metric{value, unit};
}

/// The end-to-end metrics every workload reports.
void PutEndToEnd(const SyncStats& s, double setup_s, double wall_s,
                 double cpu_s, double peak_rss_mb, RunReport* report) {
  auto& m = report->end_to_end;
  const double syncs = static_cast<double>(std::max<uint64_t>(s.syncs, 1));
  const double ok = static_cast<double>(std::max<uint64_t>(s.ok, 1));
  Put(&m, "setup_s", setup_s, "s");
  Put(&m, "syncs_per_s", static_cast<double>(s.ok) / wall_s, "1/s");
  Put(&m, "sync_p50_ms", Percentile(s.latency_ms, 0.5), "ms");
  Put(&m, "sync_p90_ms", Percentile(s.latency_ms, 0.9), "ms");
  Put(&m, "sync_bytes", s.bytes / syncs, "B");
  Put(&m, "cpu_ms_per_sync", 1e3 * cpu_s / ok, "ms");
  Put(&m, "peak_rss_mb", peak_rss_mb, "MiB");
  Put(&m, "repair_diameter", Mean(s.diameters), "grid");
  // A tail percentile is reported only with at least ten samples beyond it.
  if (s.latency_ms.size() >= 1000) {
    Put(&report->extra, "sync_p99_ms", Percentile(s.latency_ms, 0.99), "ms");
  }
}

/// Per-layer metrics derived from the syncs themselves and from the
/// spans of the traced run.
void PutSyncLayers(const SyncStats& s, const std::vector<Span>& spans,
                   RunReport* report) {
  auto& m = report->per_layer;
  const double syncs = static_cast<double>(std::max<uint64_t>(s.syncs, 1));
  const auto per_sync_mean = [&](const char* name) {
    std::vector<double> sums;
    for (const auto& [id, ms] : SumPerSync(spans, name)) {
      (void)id;
      sums.push_back(ms);
    }
    return Mean(sums);
  };
  Put(&m, "net.connect_ms", Percentile(DurationsMs(spans, "net.connect"), 0.5),
      "ms");
  Put(&m, "net.frames_per_sync", s.frames / syncs, "count");
  Put(&m, "net.frame_encode_us", 1e3 * per_sync_mean("net.frame_encode"),
      "us");
  Put(&m, "net.frame_decode_us", 1e3 * per_sync_mean("net.frame_decode"),
      "us");
  Put(&m, "server.accept_wait_ms", Percentile(s.accept_wait_ms, 0.5), "ms");
  Put(&m, "server.result_wait_ms", Percentile(s.result_wait_ms, 0.5), "ms");
  Put(&m, "server.store_build_s",
      1e-3 * Percentile(DurationsMs(spans, "server.store_build"), 0.5), "s");
  Put(&m, "recon.alice_encode_ms", per_sync_mean("recon.alice_encode"), "ms");
  Put(&m, "recon.bob_serve_ms", per_sync_mean("recon.bob_serve"), "ms");
  Put(&m, "recon.attempts_per_sync", s.attempts / syncs, "count");
  Put(&m, "recon.decoded_entries", Mean(s.decoded), "count");
  Put(&m, "recon.chosen_level", Mean(s.levels), "level");
  Put(&m, "iblt.decode_ms", per_sync_mean("iblt.decode"), "ms");
  Put(&m, "riblt.decode_ms", per_sync_mean("riblt.decode"), "ms");
}

/// Zeroes for the layers a workload does not exercise, so every traced
/// run reports the same metric names.
void PutAbsentLayers(RunReport* report) {
  auto& m = report->per_layer;
  for (const auto& [name, unit] :
       std::vector<std::pair<const char*, const char*>>{
           {"server.store_apply_ms", "ms"},
           {"server.store_apply_us_per_point", "us"},
           {"replica.round_ms", "ms"},
           {"replica.entries_per_round", "count"},
           {"replica.round_bytes", "B"},
           {"replica.useful_round_ratio", "ratio"}}) {
    if (m.count(name) == 0) Put(&m, name, 0.0, unit);
  }
}

CheckContext MakeCheckContext(const std::vector<Op>& ops,
                              const ClientSource& clients,
                              const recon::ProtocolContext& context,
                              double gap_r2) {
  CheckContext ctx;
  ctx.ops = &ops;
  ctx.clients = &clients;
  const rsr::ShiftedGrid grid(context.universe, context.seed);
  ctx.grid.shift = grid.shift();
  ctx.grid.delta = context.universe.delta;
  ctx.gap_r2 = gap_r2;
  return ctx;
}

/// The first round's syncs (sync index = op index), to replay.
std::vector<ReplayOp> FirstRoundReplays(
    const std::vector<Op>& ops, const ClientSource& clients,
    const std::vector<std::shared_ptr<const server::SketchSnapshot>>& hosts) {
  std::vector<ReplayOp> out;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op* op = &ops[i];
    out.push_back(ReplayOp{op->protocol,
                           [&clients, op, i] { return clients.Make(*op, i); },
                           hosts[op->host]});
  }
  return out;
}

bool WriteTrace(const RunConfig& config, const Tracer& tracer) {
  if (!tracer.enabled()) return true;
  return tracer.WriteJsonl(config.out_dir + "/trace-" + config.workload +
                           "-" + std::to_string(config.seed) + ".jsonl");
}

// ---------------------------------------------- read-only workloads

struct ReadOnlySpec {
  recon::ProtocolContext context;
  recon::ProtocolParams params;
  PointSet canonical;
  ClientSource clients;  ///< Its base is set to `canonical` when run.
  std::vector<Op> ops;
  size_t client_threads = 1;
  size_t shards = 2;
  int setup_repeats = 3;
  double gap_r2 = 0.0;
};

/// One AsyncSyncServer over a fixed canonical set; a closed loop of
/// clients over the op round.
bool RunReadOnly(const RunConfig& config, ReadOnlySpec spec,
                 RunReport* report) {
  spec.clients.base = &spec.canonical;
  server::AsyncSyncServerOptions options;
  options.context = spec.context;
  options.params = spec.params;
  options.shards = spec.shards;
  std::unique_ptr<server::AsyncSyncServer> host;
  PointSet staged;
  bool started = false;
  const double setup_s = MedianSetup(
      spec.setup_repeats,
      [&] {
        host.reset();
        staged = spec.canonical;
      },
      [&] {
        host = std::make_unique<server::AsyncSyncServer>(std::move(staged),
                                                         options);
        return host->Start(Loopback());
      },
      &started);
  if (!started) return false;

  Tracer tracer(config.trace);
  SyncLoopSpec loop;
  loop.ops = &spec.ops;
  loop.clients = &spec.clients;
  loop.ports = {host->port()};
  loop.client.context = spec.context;
  loop.client.params = spec.params;
  loop.client.want_result_set = true;
  loop.threads = spec.client_threads;
  loop.tracer = &tracer;
  loop.spool_prefix = config.out_dir + "/spool-" + config.workload;
  const double cpu0 = ProcessCpuSeconds();
  loop.deadline = Now() + config.seconds;
  SyncLoopResult result = RunSyncLoop(loop);
  const double cpu_s = ProcessCpuSeconds() - cpu0 - result.harness_cpu_s;
  const double peak_rss = PeakRssMiB();
  const double session_ms =
      SessionMedianMs({&host->metrics_registry()}, spec.ops);

  Tally tally;
  SyncStats stats;
  const CheckContext ctx =
      MakeCheckContext(spec.ops, spec.clients, spec.context, spec.gap_r2);
  const Counts canonical = CountsOf(PackAll(spec.canonical));
  const bool read_ok = ReadSpool(result.spool_files, [&](SyncRecord&& r) {
    bool known = false;
    const std::string reason = VerifySync(ctx, r, canonical, &known);
    stats.Add(spec.ops[r.h.op], r, reason, known, &tally);
  });
  if (!read_ok || !result.spool_ok) {
    tally.correct = false;
    ++tally.counts["spool I/O error"];
  }

  if (config.trace) {
    OnFreshThread([&] {
      SpanLog* log = tracer.NewLog();
      const uint64_t base = 1ull << 40;
      ReplayRecon(
          FirstRoundReplays(spec.ops, spec.clients, {host->snapshot()}),
          spec.context, spec.params, log, base);
      ReplayFrames(result.captured, log, 2 * base);
      ReplayStoreBuild(spec.canonical, spec.context, spec.params,
                       spec.setup_repeats, log);
    });
    const std::vector<Span> spans = tracer.Merged();
    PutSyncLayers(stats, spans, report);
    Put(&report->per_layer, "server.session_ms", session_ms, "ms");
    PutAbsentLayers(report);
    report->spans = Summarize(spans);
    if (!WriteTrace(config, tracer)) ++tally.counts["trace write error"];
  }
  PutEndToEnd(stats, setup_s, result.end - result.start, cpu_s, peak_rss,
              report);
  host->Stop();
  report->correct = tally.correct;
  report->attempted = tally.attempted;
  report->failed = tally.failed;
  report->counts = std::move(tally.counts);
  report->counts["quadtree_adaptive_failed"] = stats.adaptive_failed;
  return true;
}

recon::ProtocolContext Context(int64_t delta) {
  recon::ProtocolContext context;
  context.universe = rsr::MakeUniverse(delta, 2);
  context.seed = kFixedSeed;
  return context;
}

bool RunLargeRobust(const RunConfig& config, RunReport* report) {
  constexpr size_t kSetSize = size_t{1} << 16;
  constexpr size_t kPool = 16;  // fixed quadtree-adaptive client sets
  ReadOnlySpec spec;
  spec.context = Context(int64_t{1} << 16);
  spec.params.quadtree.k = 8;
  spec.canonical = Cloud(spec.context.universe, kSetSize, kFixedSeed);
  spec.clients.universe = spec.context.universe;
  spec.clients.outliers = 8;
  spec.clients.seed = config.seed;
  for (size_t i = 0; i < kPool; ++i) {
    spec.ops.push_back(Op{"quadtree", 0, Drift::kNoisy, i, false});
    spec.ops.push_back(
        Op{"quadtree-adaptive", 0, Drift::kNoisy, 100 + i, true});
  }
  spec.client_threads = 2;
  spec.setup_repeats = 5;
  return RunReadOnly(config, std::move(spec), report);
}

bool RunSmallMixed(const RunConfig& config, RunReport* report) {
  constexpr size_t kSetSize = 256;
  constexpr size_t kPool = 48;  // ops per protocol in a round
  constexpr size_t kOutliers = 6;
  ReadOnlySpec spec;
  spec.context = Context(int64_t{1} << 14);
  spec.params.quadtree.k = 8;
  spec.params.mlsh.k = 8;
  // Sized for noisy drift (every point perturbed plus the outliers), as
  // the serving benches size it.
  spec.params.riblt.k = 2 * (kSetSize + kOutliers);
  spec.params.gap.r1 = 1.0;
  spec.params.gap.r2 = 8.0;
  spec.gap_r2 = 8.0;
  spec.canonical = Cloud(spec.context.universe, kSetSize, kFixedSeed);
  spec.clients.universe = spec.context.universe;
  spec.clients.outliers = kOutliers;
  spec.clients.changed = kOutliers;
  spec.clients.seed = config.seed;
  const std::vector<std::string> protocols = {
      "quadtree",    "quadtree-adaptive", "gap-lattice",
      "exact-iblt",  "riblt-oneshot",     "full-transfer"};
  for (size_t i = 0; i < kPool; ++i) {
    for (size_t p = 0; p < protocols.size(); ++p) {
      const std::string& name = protocols[p];
      const bool fixed = name == "quadtree-adaptive" || name == "gap-lattice";
      const Drift drift =
          CheckFor(name) == Check::kExact ? Drift::kEdited : Drift::kNoisy;
      spec.ops.push_back(Op{name, 0, drift, 1000 * p + i, fixed});
    }
  }
  // One client: with two, whether their riblt-oneshot syncs (about 0.5 MB
  // each way) overlap moved peak_rss_mb by up to 13% between runs.
  spec.client_threads = 1;
  spec.setup_repeats = 15;
  return RunReadOnly(config, std::move(spec), report);
}

// ------------------------------------------------- churn-replicated

/// Balanced batches of this many erase+insert pairs, applied at this rate.
constexpr size_t kChurnBatch = 16;
constexpr double kWriteRate = 40.0;       // batches per second
constexpr double kRoundCadence = 0.010;   // seconds between follower rounds

/// What the window records per write and per follower round: O(1) reads
/// only, judged after the window. Set contents are compared in full once,
/// at the final quiesce, and every sync is checked against the mirror at
/// its pinned replica_seq.
struct WriteObs {
  double due = 0.0;
  double done = 0.0;
  double late_ms = 0.0;
  uint64_t seq = 0;   ///< Writer's applied_seq after Apply.
  size_t size = 0;    ///< Size of the snapshot Apply returned.
};

struct RoundObs {
  double done = 0.0;
  replica::RoundRecord record;
  uint64_t seq = 0;   ///< Follower's applied_seq after the round.
  size_t size = 0;    ///< Size of the follower's snapshot after the round.
  bool dirty = false;
};

void SleepUntil(double t) {
  const double wait = t - Now();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

/// Final quiesce check: the writer's set, the follower's set and the
/// benchmark's mirror are the same multiset.
std::string CheckConverged(const PointSet& writer, const PointSet& follower,
                           const PointSet& mirror) {
  const std::vector<uint64_t> want = PackAll(mirror);
  if (!CheckExact(want, PackAll(writer)).empty()) {
    return "writer set differs from the mirror";
  }
  if (!CheckExact(want, PackAll(follower)).empty()) {
    return "follower set differs from the mirror";
  }
  return "";
}

bool RunChurnReplicated(const RunConfig& config, RunReport* report) {
  constexpr size_t kSetSize = size_t{1} << 14;
  constexpr size_t kRound = 64;  // ops; the traced run replays one round
  constexpr double kNoise = 1.0;
  const recon::ProtocolContext context = Context(int64_t{1} << 16);
  recon::ProtocolParams params;
  params.quadtree.k = 8;
  const PointSet initial =
      Cloud(context.universe, kSetSize, kFixedSeed);

  // The whole write schedule is drawn up front: the batches, and the
  // mirror's size after each one (the canonical set at that replica_seq).
  const size_t writes =
      static_cast<size_t>(std::llround(kWriteRate * config.seconds));
  std::vector<workload::ChurnBatch> batches;
  std::vector<size_t> mirror_size = {initial.size()};
  PointSet mirror = initial;
  {
    workload::ChurnSpec churn;
    churn.fraction = 0.0;
    churn.min_updates = kChurnBatch;
    churn.noise_scale = kNoise;
    churn.fresh_fraction = 0.0;
    rsr::Rng rng(SubSeed(config.seed, 8));
    for (size_t i = 0; i < writes; ++i) {
      batches.push_back(
          workload::MakeChurnBatch(mirror, context.universe, churn, &rng));
      workload::ApplyChurnBatch(batches.back(), &mirror);
      mirror_size.push_back(mirror.size());
    }
  }

  ClientSource clients;
  clients.base = &initial;
  clients.universe = context.universe;
  clients.noise = kNoise;
  clients.outliers = 8;
  clients.seed = config.seed;
  std::vector<Op> ops;
  for (size_t i = 0; i < kRound; ++i) {
    // host 0 is the writer, 1 the follower
    ops.push_back(Op{"quadtree", i % 2, Drift::kNoisy, 100 + i, false});
  }

  replica::ReplicaNodeOptions node_options;
  node_options.server.context = context;
  node_options.server.params = params;
  node_options.server.worker_threads = 2;
  std::unique_ptr<replica::ReplicaNode> writer;
  std::unique_ptr<replica::ReplicaNode> follower;
  bool started = false;
  replica::ReplicaNodeOptions writer_options = node_options;
  writer_options.node_name = "writer";
  replica::ReplicaNodeOptions follower_options = node_options;
  follower_options.node_name = "follower";
  PointSet staged_writer;
  PointSet staged_follower;
  const double setup_s = MedianSetup(
      5,
      [&] {
        follower.reset();
        writer.reset();
        staged_writer = initial;
        staged_follower = initial;
      },
      [&] {
        writer = std::make_unique<replica::ReplicaNode>(
            std::move(staged_writer), writer_options);
        follower = std::make_unique<replica::ReplicaNode>(
            std::move(staged_follower), follower_options);
        return writer->host().Start(Loopback()) &&
               follower->host().Start(Loopback());
      },
      &started);
  if (!started) return false;
  const uint16_t writer_port = writer->host().port();
  const replica::StreamFactory dial_writer =
      [writer_port]() -> std::unique_ptr<net::ByteStream> {
    return net::TcpStream::Connect("127.0.0.1", writer_port);
  };

  Tracer tracer(config.trace);
  SpanLog* writer_log = tracer.NewLog();
  SpanLog* follower_log = tracer.NewLog();
  SyncLoopSpec loop;
  loop.ops = &ops;
  loop.clients = &clients;
  loop.ports = {writer->host().port(), follower->host().port()};
  loop.client.context = context;
  loop.client.params = params;
  loop.client.want_result_set = true;
  loop.threads = 1;
  // Every op here is a seeded quadtree sync with no known failure, so the
  // loop stops at the deadline, together with the writer and the follower.
  loop.whole_rounds = false;
  loop.tracer = &tracer;
  loop.spool_prefix = config.out_dir + "/spool-" + config.workload;

  std::vector<WriteObs> write_obs(writes);
  std::vector<RoundObs> round_obs;
  const size_t scheduled_rounds =
      static_cast<size_t>(std::llround(config.seconds / kRoundCadence));

  const double cpu0 = ProcessCpuSeconds();
  const double t0 = Now();
  loop.deadline = t0 + config.seconds;
  std::thread writer_thread([&] {
    for (size_t i = 0; i < writes; ++i) {
      WriteObs& w = write_obs[i];
      w.due = t0 + static_cast<double>(i) / kWriteRate;
      SleepUntil(w.due);
      w.late_ms = 1e3 * std::max(0.0, Now() - w.due);
      std::shared_ptr<const server::SketchSnapshot> snap;
      {
        ScopedSpan span(writer_log, "replica.apply", i + 1);
        snap = writer->Apply(batches[i].inserts, batches[i].erases);
      }
      w.done = Now();
      w.seq = writer->applied_seq();
      w.size = snap->size();
    }
  });
  auto follower_round = [&](uint64_t id) {
    RoundObs obs;
    {
      ScopedSpan span(follower_log, "replica.round", id);
      obs.record = follower->SyncWithPeer(dial_writer, "writer");
    }
    obs.done = Now();
    obs.seq = follower->applied_seq();
    obs.size = follower->snapshot()->size();
    obs.dirty = follower->dirty();
    round_obs.push_back(std::move(obs));
  };
  std::thread follower_thread([&] {
    for (size_t j = 0; j < scheduled_rounds; ++j) {
      SleepUntil(t0 + static_cast<double>(j) * kRoundCadence);
      follower_round(j + 1);
    }
  });
  SyncLoopResult result = RunSyncLoop(loop);
  writer_thread.join();
  follower_thread.join();
  const double cpu_s = ProcessCpuSeconds() - cpu0 - result.harness_cpu_s;
  const double peak_rss = PeakRssMiB();
  // Quiesce: a bounded number of extra rounds until the follower holds
  // every batch.
  for (size_t extra = 0; extra < 200 && follower->applied_seq() < writes;
       ++extra) {
    follower_round(scheduled_rounds + extra + 1);
  }

  Tally tally;
  for (size_t i = 0; i < writes; ++i) {
    const WriteObs& w = write_obs[i];
    ++tally.attempted;
    ++tally.counts["attempted: write"];
    if (w.seq != i + 1 || w.size != mirror_size[i + 1]) {
      tally.Fail("write: seq or size differs from the mirror", false);
    }
  }
  uint64_t last_seq = 0;
  for (const RoundObs& r : round_obs) {
    ++tally.attempted;
    ++tally.counts["attempted: replica round"];
    ++tally.counts[std::string("round path: ") +
                   replica::RoundPathName(r.record.path)];
    const bool ok = r.record.ok && !r.dirty && r.seq == r.record.seq_after &&
                    r.seq >= last_seq && r.seq <= writes &&
                    r.size == mirror_size[r.seq];
    if (!ok) {
      tally.Fail("replica round: follower seq, size or state is wrong", false);
    }
    last_seq = std::max(last_seq, r.seq);
  }
  const std::string converged =
      CheckConverged(writer->points(), follower->points(), mirror);
  if (!converged.empty()) {
    tally.correct = false;
    ++tally.counts["final: " + converged];
  }

  // Syncs: checked against the mirror at the replica_seq they were pinned
  // to, replaying the batches in seq order.
  std::vector<SyncRecord> records;
  const bool read_ok = ReadSpool(result.spool_files, [&](SyncRecord&& r) {
    records.push_back(std::move(r));
  });
  if (!read_ok || !result.spool_ok) {
    tally.correct = false;
    ++tally.counts["spool I/O error"];
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const SyncRecord& a, const SyncRecord& b) {
                     return a.h.replica_seq < b.h.replica_seq;
                   });
  const CheckContext ctx = MakeCheckContext(ops, clients, context, 0.0);
  Counts pinned = CountsOf(PackAll(initial));
  size_t applied = 0;
  SyncStats stats;
  for (SyncRecord& r : records) {
    while (applied < r.h.replica_seq && applied < batches.size()) {
      for (const Point& p : batches[applied].erases) {
        auto it = pinned.find(Pack(p));
        if (it != pinned.end() && it->second > 0) --it->second;
      }
      for (const Point& p : batches[applied].inserts) ++pinned[Pack(p)];
      ++applied;
    }
    bool known = false;
    std::string reason = r.h.replica_seq > batches.size()
                             ? "sync pinned past the last write"
                             : VerifySync(ctx, r, pinned, &known);
    stats.Add(ops[r.h.op], r, reason, known, &tally);
  }

  // Writes, timed from when the open-loop schedule made each batch due.
  std::vector<double> write_ms, late_ms, lag_ms;
  for (const WriteObs& w : write_obs) {
    write_ms.push_back(1e3 * (w.done - w.due));
    late_ms.push_back(w.late_ms);
  }
  {
    std::vector<const RoundObs*> by_time;
    for (const RoundObs& r : round_obs) by_time.push_back(&r);
    size_t cursor = 0;
    for (size_t i = 0; i < writes; ++i) {
      // First round that ended holding batch i (seq i + 1).
      while (cursor < by_time.size() &&
             by_time[cursor]->record.seq_after < i + 1) {
        ++cursor;
      }
      if (cursor == by_time.size()) break;
      lag_ms.push_back(
          1e3 * std::max(0.0, by_time[cursor]->done - write_obs[i].done));
    }
  }

  if (config.trace) {
    OnFreshThread([&] {
      SpanLog* log = tracer.NewLog();
      const uint64_t base = 1ull << 40;
      ReplayRecon(FirstRoundReplays(
                      ops, clients,
                      {writer->snapshot(), follower->snapshot()}),
                  context, params, log, base);
      ReplayFrames(result.captured, log, 2 * base);
      ReplayStoreBuild(initial, context, params, 5, log);
      constexpr size_t kApplyReplays = 40;
      const std::vector<workload::ChurnBatch> sample(
          batches.begin(),
          batches.begin() + static_cast<ptrdiff_t>(
                                std::min(kApplyReplays, batches.size())));
      ReplayStoreApply(initial, sample, context, params, log, 3 * base);
    });
    const std::vector<Span> spans = tracer.Merged();
    PutSyncLayers(stats, spans, report);
    auto& m = report->per_layer;
    Put(&m, "server.session_ms",
        SessionMedianMs({&writer->host().metrics_registry(),
                         &follower->host().metrics_registry()},
                        ops),
        "ms");
    std::vector<double> apply_ms = DurationsMs(spans, "server.store_apply");
    std::vector<double> per_point;
    for (double ms : apply_ms) {
      per_point.push_back(1e3 * ms / static_cast<double>(2 * kChurnBatch));
    }
    Put(&m, "server.store_apply_ms", Percentile(apply_ms, 0.5), "ms");
    Put(&m, "server.store_apply_us_per_point", Percentile(per_point, 0.5),
        "us");
    double entries = 0, bytes = 0, useful = 0;
    for (const RoundObs& r : round_obs) {
      entries += static_cast<double>(r.record.entries_applied);
      bytes += static_cast<double>(r.record.bytes_sent +
                                   r.record.bytes_received);
      if (r.record.entries_applied > 0) ++useful;
    }
    const double rounds =
        static_cast<double>(std::max<size_t>(round_obs.size(), 1));
    Put(&m, "replica.round_ms",
        Percentile(DurationsMs(spans, "replica.round"), 0.5), "ms");
    Put(&m, "replica.entries_per_round", entries / rounds, "count");
    Put(&m, "replica.round_bytes", bytes / rounds, "B");
    Put(&m, "replica.useful_round_ratio", useful / rounds, "ratio");
    report->spans = Summarize(spans);
    if (!WriteTrace(config, tracer)) ++tally.counts["trace write error"];
  }
  PutEndToEnd(stats, setup_s, result.end - result.start, cpu_s, peak_rss,
              report);
  Put(&report->extra, "write_p50_ms", Percentile(write_ms, 0.5), "ms");
  Put(&report->extra, "write_p90_ms", Percentile(write_ms, 0.9), "ms");
  Put(&report->extra, "replication_lag_p50_ms", Percentile(lag_ms, 0.5),
      "ms");
  Put(&report->extra, "generator_late_p90_ms", Percentile(late_ms, 0.9),
      "ms");
  Put(&report->extra, "generator_late_max_ms",
      late_ms.empty() ? 0.0
                      : *std::max_element(late_ms.begin(), late_ms.end()),
      "ms");
  follower->host().Stop();
  writer->host().Stop();
  report->correct = tally.correct;
  report->attempted = tally.attempted;
  report->failed = tally.failed;
  report->counts = std::move(tally.counts);
  report->counts["quadtree_adaptive_failed"] = stats.adaptive_failed;
  return true;
}

// ---------------------------------------------------------- self-test

/// Runs one real sync of op `index` against `port` into a record.
SyncRecord SyncOnce(const server::SyncClient& client, uint16_t port,
                    const std::vector<Op>& ops, const ClientSource& clients,
                    uint32_t index) {
  SyncRecord record;
  record.h.index = index;
  record.h.op = index;
  std::unique_ptr<net::TcpStream> tcp =
      net::TcpStream::Connect("127.0.0.1", port);
  if (tcp == nullptr) return record;
  const Op& op = ops[index];
  const server::SyncOutcome outcome =
      client.Sync(tcp.get(), op.protocol, clients.Make(op, index));
  FillOutcome(outcome, &record.h);
  record.result = PackAll(outcome.result.bob_final);
  return record;
}

}  // namespace

bool RunSelfTest() {
  bool pass = true;
  const auto report = [&](const std::string& name, bool ok,
                          const std::string& detail) {
    std::fprintf(stderr, "selftest: %-34s %s%s%s\n", name.c_str(),
                 ok ? "ok" : "FAILED", detail.empty() ? "" : " -- ",
                 detail.c_str());
    pass = pass && ok;
  };

  // Genuine outputs from a real host: each must pass its check.
  const recon::ProtocolContext context = Context(int64_t{1} << 14);
  recon::ProtocolParams params;
  params.quadtree.k = 8;
  params.gap.r1 = 1.0;
  params.gap.r2 = 8.0;
  const PointSet canonical = Cloud(context.universe, 256, kFixedSeed);
  ClientSource clients;
  clients.base = &canonical;
  clients.universe = context.universe;
  clients.outliers = 6;
  clients.changed = 6;
  const std::vector<Op> ops = {
      Op{"full-transfer", 0, Drift::kEdited, 1, true},
      Op{"quadtree", 0, Drift::kNoisy, 2, true},
      Op{"gap-lattice", 0, Drift::kNoisy, 3, true}};
  server::AsyncSyncServerOptions host_options;
  host_options.context = context;
  host_options.params = params;
  host_options.shards = 1;
  server::AsyncSyncServer host(canonical, host_options);
  if (!host.Start(Loopback())) {
    report("start host", false, "could not listen on loopback");
    return false;
  }
  server::SyncClientOptions client_options;
  client_options.context = context;
  client_options.params = params;
  const server::SyncClient client(client_options);
  std::vector<SyncRecord> genuine;
  for (uint32_t i = 0; i < ops.size(); ++i) {
    genuine.push_back(SyncOnce(client, host.port(), ops, clients, i));
  }
  host.Stop();

  const CheckContext ctx = MakeCheckContext(ops, clients, context, 8.0);
  const Counts canonical_counts = CountsOf(PackAll(canonical));
  for (const SyncRecord& r : genuine) {
    bool known = false;
    const std::string reason = VerifySync(ctx, r, canonical_counts, &known);
    report("genuine " + ops[r.h.op].protocol + " passes", reason.empty(),
           reason);
  }

  // Planted wrong outputs, counted through the workloads' own tally.
  Tally tally;
  SyncStats stats;
  uint64_t planted = 0;
  const auto plant = [&](const std::string& name, const SyncRecord& r) {
    ++planted;
    bool known = false;
    const std::string reason = VerifySync(ctx, r, canonical_counts, &known);
    const uint64_t before = tally.failed;
    stats.Add(ops[r.h.op], r, reason, known, &tally);
    report(name, tally.failed == before + 1 && !known, reason);
  };
  {
    SyncRecord r = genuine[0];
    if (!r.result.empty()) r.result.pop_back();
    plant("exact: point dropped", r);
  }
  {
    // Move a repaired point (one that is not canonical, hence a cell
    // representative) into the neighbouring cell.
    SyncRecord r = genuine[1];
    size_t victim = 0;
    for (size_t i = 0; i < r.result.size(); ++i) {
      if (canonical_counts.count(r.result[i]) == 0) {
        victim = i;
        break;
      }
    }
    if (!r.result.empty() && r.h.chosen_level >= 0) {
      Point p = Unpack(r.result[victim]);
      const int64_t side = int64_t{1} << r.h.chosen_level;
      p[0] = p[0] + side < context.universe.delta ? p[0] + side : p[0] - side;
      r.result[victim] = Pack(p);
    }
    plant("quadtree: point moved a cell over", r);
  }
  {
    // Remove every result point that covers the first client point.
    SyncRecord r = genuine[2];
    const std::vector<uint64_t> one = {
        Pack(clients.Make(ops[2], r.h.index).front())};
    std::vector<uint64_t> kept;
    for (uint64_t p : r.result) {
      if (!CheckGap(one, {p}, ctx.gap_r2).empty()) kept.push_back(p);
    }
    r.result = std::move(kept);
    plant("gap: client point uncovered", r);
  }

  // Replication: a writer, a follower and the benchmark's mirror agree
  // after a few batches; then one follower point is altered.
  {
    replica::ReplicaNodeOptions node_options;
    node_options.server.context = context;
    node_options.server.params = params;
    node_options.server.worker_threads = 1;
    replica::ReplicaNode writer(canonical, node_options);
    replica::ReplicaNode follower(canonical, node_options);
    bool ok = writer.host().Start(Loopback());
    const uint16_t port = writer.host().port();
    PointSet mirror = canonical;
    workload::ChurnSpec churn;
    churn.fraction = 0.0;
    churn.min_updates = 4;
    rsr::Rng rng(SubSeed(kFixedSeed, 4));
    for (int i = 0; ok && i < 3; ++i) {
      const workload::ChurnBatch batch =
          workload::MakeChurnBatch(mirror, context.universe, churn, &rng);
      workload::ApplyChurnBatch(batch, &mirror);
      writer.Apply(batch.inserts, batch.erases);
    }
    for (int i = 0; ok && i < 10 && follower.applied_seq() < 3; ++i) {
      follower.SyncWithPeer(
          [port]() -> std::unique_ptr<net::ByteStream> {
            return net::TcpStream::Connect("127.0.0.1", port);
          },
          "writer");
    }
    writer.host().Stop();
    const std::string genuine_reason =
        CheckConverged(writer.points(), follower.points(), mirror);
    report("genuine replication converges", ok && genuine_reason.empty(),
           genuine_reason);
    PointSet altered = follower.points();
    if (!altered.empty()) altered.front()[0] ^= 1;
    const std::string reason =
        CheckConverged(writer.points(), altered, mirror);
    ++planted;
    const uint64_t before = tally.failed;
    if (!reason.empty()) tally.Fail(reason, false);
    report("replication: follower point altered", tally.failed == before + 1,
           reason);
  }
  report("every planted output counted as failed",
         tally.failed == planted && !tally.correct,
         std::to_string(tally.failed) + " of " + std::to_string(planted));
  return pass;
}

std::vector<std::string> WorkloadNames() {
  return {"large-robust", "small-mixed", "churn-replicated"};
}

bool RunWorkload(const RunConfig& config, RunReport* report) {
  if (config.workload == "large-robust") {
    return RunLargeRobust(config, report);
  }
  if (config.workload == "small-mixed") return RunSmallMixed(config, report);
  if (config.workload == "churn-replicated") {
    return RunChurnReplicated(config, report);
  }
  return false;
}

}  // namespace syncbench
