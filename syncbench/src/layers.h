// Per-layer replays for the traced run.
//
// After the measured window, the traced run calls each layer's public
// functions again on the workload's own inputs, one call per span, in a
// quiet process: the client's session encode, a Bob session pumped from
// the host's current snapshot, the IBLT / RIBLT difference decode, the
// frame codec on frames captured from real syncs, and the sketch store's
// build and batch apply. The replays run after the window so they do not
// perturb the untraced figures' counterparts in the traced run.

#ifndef SYNCBENCH_LAYERS_H_
#define SYNCBENCH_LAYERS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "recon/registry.h"
#include "server/sketch_store.h"
#include "trace.h"
#include "workload/churn.h"

namespace syncbench {

/// One sync to replay in process: the protocol, a function that draws
/// the client's set, and the snapshot of the host it was served by.
struct ReplayOp {
  std::string protocol;
  std::function<rsr::PointSet()> make_client;
  std::shared_ptr<const rsr::server::SketchSnapshot> snapshot;
};

/// Spans per op (sync_id = first_id + index):
///   recon.alice_encode  MakeAliceSession + Start
///   recon.bob_serve     each Bob call (MakeBobSession + Start, OnMessage)
///                       of a session pumped against the Alice session
///   iblt.decode         quadtree: subtract + peel per level, finest first,
///                       until a level decodes
///   riblt.decode        riblt-oneshot: subtract + peel
void ReplayRecon(const std::vector<ReplayOp>& ops,
                 const rsr::recon::ProtocolContext& context,
                 const rsr::recon::ProtocolParams& params, SpanLog* log,
                 uint64_t first_id);

/// The raw bytes, both directions, of one captured sync.
struct CapturedSync {
  std::vector<uint8_t> sent;
  std::vector<uint8_t> received;
};

/// Spans per captured sync: net.frame_decode (FrameDecoder over all of
/// the sync's bytes) and net.frame_encode (EncodeFrame of every decoded
/// frame).
void ReplayFrames(const std::vector<CapturedSync>& captured, SpanLog* log,
                  uint64_t first_id);

/// server.store_build spans: `repeats` SketchStore constructions over
/// `canonical`.
void ReplayStoreBuild(const rsr::PointSet& canonical,
                      const rsr::recon::ProtocolContext& context,
                      const rsr::recon::ProtocolParams& params, int repeats,
                      SpanLog* log);

/// server.store_apply spans (sync_id = first_id + batch index): a store
/// over `initial` absorbing `batches` in order.
void ReplayStoreApply(const rsr::PointSet& initial,
                      const std::vector<rsr::workload::ChurnBatch>& batches,
                      const rsr::recon::ProtocolContext& context,
                      const rsr::recon::ProtocolParams& params, SpanLog* log,
                      uint64_t first_id);

}  // namespace syncbench

#endif  // SYNCBENCH_LAYERS_H_
