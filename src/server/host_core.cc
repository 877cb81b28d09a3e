#include "server/host_core.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace rsr {
namespace server {

namespace {

/// Instance salt of the host's trace-id stream ("servhelo" in ASCII).
constexpr uint64_t kTraceMintSalt = 0x73657276'68656c6fULL;

}  // namespace

HostCore::HostCore(PointSet canonical, const HostOptions& options)
    : options_(options),
      obs_(ServerObsOptions{options_.latency_probes, options_.trace_sink}),
      clock_(options_.clock != nullptr ? options_.clock : obs::Clock::Real()),
      trace_gen_(options_.trace_seed, kTraceMintSalt),
      store_(std::move(canonical),
             SketchStoreOptions{
                 options_.context, options_.params, options_.serve_from_cache,
                 MakeStoreMetrics(&obs_.registry(), options_.latency_probes)}),
      registry_(options_.registry != nullptr
                    ? options_.registry
                    : &recon::ProtocolRegistry::Global()),
      replica_seq_gauge_(obs_.registry().GetGauge(
          "rsr_replica_seq",
          "Replication position (last journaled seq folded into the set)")),
      repair_dirty_gauge_(obs_.registry().GetGauge(
          "rsr_replica_repair_dirty",
          "1 after an approximate repair, until an exact one supersedes")) {}

std::shared_ptr<const SketchSnapshot> HostCore::ApplyUpdate(
    const PointSet& inserts, const PointSet& erases) {
  return ApplyUpdate(inserts, erases, obs::TraceContext());
}

std::shared_ptr<const SketchSnapshot> HostCore::ApplyUpdate(
    const PointSet& inserts, const PointSet& erases,
    const obs::TraceContext& trace) {
  MutexLock lock(replica_mu_);
  std::shared_ptr<const SketchSnapshot> snap =
      store_.ApplyUpdate(inserts, erases);
  if (options_.changelog != nullptr) {
    replica::ChangeEntry entry;
    entry.seq = ++replica_seq_;
    entry.inserts = inserts;
    entry.erases = erases;
    entry.append_micros = clock_->NowMicros();
    entry.trace_hi = trace.trace_hi;
    entry.trace_lo = trace.trace_lo;
    options_.changelog->Append(std::move(entry));
    replica_seq_gauge_->Set(static_cast<int64_t>(replica_seq_));
  }
  return snap;
}

std::shared_ptr<const SketchSnapshot> HostCore::ApplyReplicated(
    const replica::ChangeEntry& entry) {
  MutexLock lock(replica_mu_);
  if (entry.seq <= replica_seq_) return store_.Snapshot();
  RSR_CHECK_MSG(entry.seq == replica_seq_ + 1,
                "replicated entry would leave a seq gap");
  std::shared_ptr<const SketchSnapshot> snap =
      store_.ApplyUpdate(entry.inserts, entry.erases);
  replica_seq_ = entry.seq;
  replica_seq_gauge_->Set(static_cast<int64_t>(replica_seq_));
  if (options_.changelog != nullptr) options_.changelog->Append(entry);
  return snap;
}

std::shared_ptr<const SketchSnapshot> HostCore::InstallRepair(
    const PointSet& inserts, const PointSet& erases, uint64_t seq,
    bool exact) {
  MutexLock lock(replica_mu_);
  std::shared_ptr<const SketchSnapshot> snap =
      store_.ApplyUpdate(inserts, erases);
  if (exact) {
    replica_seq_ = seq;
    repair_dirty_ = false;
    if (options_.changelog != nullptr) options_.changelog->MarkSnapshot(seq);
  } else {
    // The set now corresponds to no journal position: stay at the old seq
    // (so a later exact repair re-bases correctly) and flag the state.
    repair_dirty_ = true;
  }
  replica_seq_gauge_->Set(static_cast<int64_t>(replica_seq_));
  repair_dirty_gauge_->Set(repair_dirty_ ? 1 : 0);
  return snap;
}

uint64_t HostCore::replica_seq() const {
  MutexLock lock(replica_mu_);
  return replica_seq_;
}

bool HostCore::repair_dirty() const {
  MutexLock lock(replica_mu_);
  return repair_dirty_;
}

std::string HostCore::DumpStats() const {
  uint64_t generation = 0;
  uint64_t seq = 0;
  {
    MutexLock lock(replica_mu_);
    generation = store_.Snapshot()->generation();
    seq = replica_seq_;
  }
  return rsr::server::DumpStats(metrics(), generation, seq);
}

HostCore::Pinned HostCore::Pin() const {
  MutexLock lock(replica_mu_);
  return Pinned{store_.Snapshot(), replica_seq_, repair_dirty_};
}

LogBatchFrame HostCore::LogBatch(const LogFetchFrame& fetch) const {
  // One lock for the whole answer, so (entries, last_seq, dirty, strata)
  // are one consistent view.
  MutexLock lock(replica_mu_);
  LogBatchFrame batch;
  batch.last_seq = replica_seq_;
  batch.dirty = repair_dirty_;
  if (options_.changelog != nullptr) {
    size_t cap = options_.log_fetch_max_entries;
    if (fetch.max_entries > 0) {
      cap = std::min<size_t>(cap, static_cast<size_t>(fetch.max_entries));
    }
    replica::FetchedEntries fetched = options_.changelog->Fetch(fetch.from_seq,
                                                                cap);
    batch.ok = fetched.ok;
    batch.complete = fetched.complete;
    batch.entries = std::move(fetched.entries);
  }
  // A missing tail or a dirty host forces the fetcher onto the repair
  // path: attach the strata estimator so it can size the repair from this
  // one round trip.
  if (!batch.ok || batch.dirty || fetch.want_strata) {
    batch.strata = SnapshotStrata(*store_.Snapshot(), options_.context);
  }
  return batch;
}

}  // namespace server
}  // namespace rsr
