// Hostile wire counts: every count a session reads off the wire is checked
// before anything is sized by it (util/bitio.h WireCountFits). Each case
// feeds one hand-built message claiming an absurd count straight into the
// session that a host runs, with no socket in between, and requires the
// session to end in kMalformedMessage. Without the checks these frames
// died in std::bad_alloc (or a failed RSR_CHECK) and took the process
// with them.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/point.h"
#include "iblt/iblt.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "transport/message.h"
#include "util/bitio.h"
#include "workload/generator.h"

namespace rsr {
namespace {

using recon::PartySession;
using recon::SessionError;

constexpr uint64_t kHugeCount = uint64_t{1} << 40;

recon::ProtocolContext Ctx() {
  recon::ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 12, 2);
  ctx.seed = 5;
  return ctx;
}

PointSet Cloud(size_t n) {
  workload::CloudSpec spec;
  spec.universe = Ctx().universe;
  spec.n = n;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(17);
  return workload::GenerateCloud(spec, &rng);
}

transport::Message Varints(const std::string& label,
                           const std::vector<uint64_t>& values) {
  BitWriter w;
  for (uint64_t v : values) w.WriteVarint(v);
  return transport::MakeMessage(label, std::move(w));
}

enum class Role { kAlice, kBob };

/// Starts `role` of `protocol` over a small set and delivers `message`.
SessionError Deliver(const std::string& protocol, Role role,
                     transport::Message message) {
  const std::unique_ptr<recon::Reconciler> reconciler =
      recon::MakeReconciler(protocol, Ctx(), recon::ProtocolParams());
  EXPECT_NE(reconciler, nullptr) << protocol;
  if (reconciler == nullptr) return SessionError::kNone;
  const std::unique_ptr<PartySession> session =
      role == Role::kAlice ? reconciler->MakeAliceSession(Cloud(64))
                           : reconciler->MakeBobSession(Cloud(64));
  session->Start();
  const std::vector<transport::Message> replies =
      session->OnMessage(std::move(message));
  EXPECT_TRUE(replies.empty()) << protocol;
  EXPECT_TRUE(session->IsDone()) << protocol;
  const recon::ReconResult result = session->TakeResult();
  EXPECT_FALSE(result.success) << protocol;
  return result.error;
}

TEST(WireBoundsTest, IbltDeserializeRefusesCellsTheMessageCannotHold) {
  IbltConfig config;
  config.cells = kHugeCount;
  BitWriter w;
  w.WriteVarint(7);
  const std::vector<uint8_t> bytes = std::move(w).TakeBytes();
  BitReader in(bytes);
  EXPECT_FALSE(Iblt::Deserialize(config, &in).has_value());
  // A count so large that rounding it up would wrap is refused too.
  config.cells = ~uint64_t{0};
  BitReader again(bytes);
  EXPECT_FALSE(Iblt::Deserialize(config, &again).has_value());
}

TEST(WireBoundsTest, ExactIbltBobRefusesHugeCellCount) {
  EXPECT_EQ(Deliver("exact-iblt", Role::kBob,
                    Varints("exact-iblt", {kHugeCount})),
            SessionError::kMalformedMessage);
}

TEST(WireBoundsTest, GapLatticeRefusesHugeCellCount) {
  // The gap-lattice side that reads the entry-key IBLT's cell count is the
  // one a "@pull" host runs.
  EXPECT_EQ(Deliver("gap-lattice", Role::kAlice,
                    Varints("gap-iblt", {kHugeCount})),
            SessionError::kMalformedMessage);
}

TEST(WireBoundsTest, AdaptiveQuadtreeAliceRefusesHugeCellRequest) {
  EXPECT_EQ(Deliver("quadtree-adaptive", Role::kAlice,
                    Varints("qt-level-request", {3, kHugeCount, 0})),
            SessionError::kMalformedMessage);
}

TEST(WireBoundsTest, AdaptiveQuadtreeAliceRefusesUnknownLevel) {
  EXPECT_EQ(Deliver("quadtree-adaptive", Role::kAlice,
                    Varints("qt-level-request", {kHugeCount, 64, 0})),
            SessionError::kMalformedMessage);
}

TEST(WireBoundsTest, AdaptiveQuadtreeAliceStillServesLegalRequest) {
  const std::unique_ptr<recon::Reconciler> reconciler =
      recon::MakeReconciler("quadtree-adaptive", Ctx(),
                            recon::ProtocolParams());
  const std::unique_ptr<PartySession> alice =
      reconciler->MakeAliceSession(Cloud(64));
  alice->Start();
  const std::vector<transport::Message> replies =
      alice->OnMessage(Varints("qt-level-request", {3, 64, 0}));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].label, "qt-level-iblt");
  EXPECT_FALSE(alice->IsDone());
}

TEST(WireBoundsTest, RibltOneShotBobRefusesHugeAliceSize) {
  // 2n + 2 would wrap to zero entries.
  EXPECT_EQ(Deliver("riblt-oneshot", Role::kBob,
                    Varints("riblt-set", {~uint64_t{0}})),
            SessionError::kMalformedMessage);
  // Past the sum fields' width caps.
  EXPECT_EQ(Deliver("riblt-oneshot", Role::kBob,
                    Varints("riblt-set", {uint64_t{1} << 60})),
            SessionError::kMalformedMessage);
  EXPECT_EQ(Deliver("riblt-oneshot", Role::kBob,
                    Varints("riblt-set", {kHugeCount})),
            SessionError::kMalformedMessage);
}

TEST(WireBoundsTest, FullTransferBobRefusesHugePointCount) {
  EXPECT_EQ(Deliver("full-transfer", Role::kBob,
                    Varints("full-transfer", {kHugeCount})),
            SessionError::kMalformedMessage);
}

}  // namespace
}  // namespace rsr
