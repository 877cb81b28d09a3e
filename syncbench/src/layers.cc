#include "layers.h"

#include <optional>
#include <utility>

#include "iblt/iblt.h"
#include "net/frame.h"
#include "recon/params.h"
#include "recon/quadtree_recon.h"
#include "recon/session.h"
#include "riblt/riblt.h"
#include "riblt/riblt_recon.h"
#include "util/bitio.h"
#include "util/random.h"

namespace syncbench {

namespace recon = rsr::recon;
namespace server = rsr::server;
using rsr::transport::Message;

namespace {

void ReplayLevelDecode(const Message& qt_levels, const ReplayOp& op,
                       const recon::ProtocolContext& context,
                       const recon::QuadtreeParams& params, SpanLog* log,
                       uint64_t id) {
  const rsr::ShiftedGrid grid(context.universe, context.seed);
  const size_t n = op.snapshot->size();
  rsr::BitReader reader(qt_levels.payload);
  for (int level : recon::ProtocolLevels(grid, params)) {
    const rsr::IbltConfig config =
        recon::LevelIbltConfig(grid, level, n, params, context.seed);
    std::optional<rsr::Iblt> alice = rsr::Iblt::Deserialize(config, &reader);
    if (!alice.has_value()) return;
    std::optional<rsr::Iblt> bob =
        op.snapshot->QuadtreeLevelIblt(config, level);
    if (!bob.has_value()) {
      bob = recon::BuildLevelIblt(grid, op.snapshot->points(), level, n,
                                  params, context.seed);
    }
    bool decoded = false;
    {
      ScopedSpan span(log, "iblt.decode", id);
      alice->Subtract(*bob);
      decoded = alice->Decode(params.DecodeBudget()).success;
    }
    if (decoded) return;
  }
}

void ReplayRibltDecode(const Message& riblt_set, const ReplayOp& op,
                       const recon::ProtocolContext& context,
                       const rsr::RibltReconParams& params, SpanLog* log,
                       uint64_t id) {
  rsr::BitReader reader(riblt_set.payload);
  uint64_t alice_n = 0;
  if (!reader.ReadVarint(&alice_n)) return;
  const rsr::RibltConfig config = rsr::RibltOneShotConfig(
      context.universe, params, static_cast<size_t>(alice_n), context.seed);
  std::optional<rsr::Riblt> diff = rsr::Riblt::Deserialize(config, &reader);
  std::optional<rsr::Riblt> bob = op.snapshot->OneShotRiblt(config);
  if (!diff.has_value() || !bob.has_value()) return;
  ScopedSpan span(log, "riblt.decode", id);
  diff->Subtract(*bob);
  rsr::Rng rng(context.seed);
  (void)diff->Decode(&rng, params.DecodeBudget());
}

}  // namespace

void ReplayRecon(const std::vector<ReplayOp>& ops,
                 const recon::ProtocolContext& context,
                 const recon::ProtocolParams& params, SpanLog* log,
                 uint64_t first_id) {
  const recon::ProtocolParams resolved = params.Resolved();
  for (size_t i = 0; i < ops.size(); ++i) {
    const ReplayOp& op = ops[i];
    const uint64_t id = first_id + i;
    const std::unique_ptr<recon::Reconciler> reconciler =
        recon::MakeReconciler(op.protocol, context, params);
    const rsr::PointSet client = op.make_client();
    std::unique_ptr<recon::PartySession> alice;
    std::vector<Message> to_bob;
    {
      ScopedSpan span(log, "recon.alice_encode", id);
      alice = reconciler->MakeAliceSession(client);
      to_bob = alice->Start();
    }
    if (op.protocol == "quadtree" && !to_bob.empty()) {
      ReplayLevelDecode(to_bob.front(), op, context, resolved.quadtree, log,
                        id);
    } else if (op.protocol == "riblt-oneshot" && !to_bob.empty()) {
      ReplayRibltDecode(to_bob.front(), op, context, resolved.riblt, log, id);
    }

    std::unique_ptr<recon::PartySession> bob;
    std::vector<Message> to_alice;
    {
      ScopedSpan span(log, "recon.bob_serve", id);
      bob = reconciler->MakeBobSession(op.snapshot->points(),
                                       op.snapshot.get());
      to_alice = bob->Start();
    }
    // Pump until Bob finishes; only Bob's calls are timed.
    for (size_t deliveries = 0; !bob->IsDone() && deliveries < 1024;) {
      if (to_bob.empty() && to_alice.empty()) break;  // stalled
      std::vector<Message> pending = std::move(to_bob);
      to_bob.clear();
      for (Message& message : pending) {
        if (bob->IsDone()) break;
        ++deliveries;
        std::vector<Message> replies;
        {
          ScopedSpan span(log, "recon.bob_serve", id);
          replies = bob->OnMessage(std::move(message));
        }
        for (Message& reply : replies) to_alice.push_back(std::move(reply));
      }
      if (bob->IsDone()) break;
      pending = std::move(to_alice);
      to_alice.clear();
      for (Message& message : pending) {
        ++deliveries;
        for (Message& reply : alice->OnMessage(std::move(message))) {
          to_bob.push_back(std::move(reply));
        }
      }
    }
  }
}

void ReplayFrames(const std::vector<CapturedSync>& captured, SpanLog* log,
                  uint64_t first_id) {
  for (size_t i = 0; i < captured.size(); ++i) {
    const uint64_t id = first_id + i;
    std::vector<Message> frames;
    {
      ScopedSpan span(log, "net.frame_decode", id);
      for (const std::vector<uint8_t>* bytes :
           {&captured[i].sent, &captured[i].received}) {
        rsr::net::FrameDecoder decoder;
        decoder.Feed(*bytes);
        Message message;
        while (decoder.Next(&message) ==
               rsr::net::FrameDecoder::Status::kFrame) {
          frames.push_back(std::move(message));
        }
      }
    }
    std::vector<uint8_t> encoded;
    {
      ScopedSpan span(log, "net.frame_encode", id);
      for (const Message& message : frames) {
        encoded.clear();
        rsr::net::EncodeFrame(message, &encoded);
      }
    }
  }
}

void ReplayStoreBuild(const rsr::PointSet& canonical,
                      const recon::ProtocolContext& context,
                      const recon::ProtocolParams& params, int repeats,
                      SpanLog* log) {
  server::SketchStoreOptions options;
  options.context = context;
  options.params = params;
  for (int r = 0; r < repeats; ++r) {
    rsr::PointSet points = canonical;
    std::unique_ptr<server::SketchStore> store;
    {
      ScopedSpan span(log, "server.store_build", 0);
      store = std::make_unique<server::SketchStore>(std::move(points),
                                                    options);
    }
  }
}

void ReplayStoreApply(const rsr::PointSet& initial,
                      const std::vector<rsr::workload::ChurnBatch>& batches,
                      const recon::ProtocolContext& context,
                      const recon::ProtocolParams& params, SpanLog* log,
                      uint64_t first_id) {
  server::SketchStoreOptions options;
  options.context = context;
  options.params = params;
  server::SketchStore store(initial, options);
  for (size_t i = 0; i < batches.size(); ++i) {
    ScopedSpan span(log, "server.store_apply", first_id + i);
    (void)store.ApplyUpdate(batches[i].inserts, batches[i].erases);
  }
}

}  // namespace syncbench
