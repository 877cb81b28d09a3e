// One test body, both drivers. SyncServer and AsyncSyncServer are thin
// drivers over the same HostCore and Connection (server/connection.h), so
// every opening verb must behave identically on both. Each case below
// runs once against the blocking driver over in-process pipes and once
// against the reactor over loopback TCP: "@stats", "@log-fetch" (and its
// malformed-frame reject), the unknown-protocol reject, a follower's
// "@pull" repair round (which must match the same round against the
// blocking host), and hostile frames the host must survive.

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/pipe_stream.h"
#include "net/tcp.h"
#include "recon/exact_recon.h"
#include "recon/registry.h"
#include "replica/changelog.h"
#include "replica/replica_node.h"
#include "server/async_sync_server.h"
#include "server/handshake.h"
#include "server/sync_client.h"
#include "server/sync_server.h"
#include "transport/channel.h"
#include "util/bitio.h"
#include "workload/churn.h"
#include "workload/generator.h"

namespace rsr {
namespace server {
namespace {

using recon::SessionError;

recon::ProtocolContext Ctx() {
  recon::ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 12, 2);
  ctx.seed = 9;
  return ctx;
}

recon::ProtocolParams Params() {
  recon::ProtocolParams params;
  params.k = 8;
  return params;
}

PointSet Cloud(size_t n, uint64_t seed) {
  workload::CloudSpec spec;
  spec.universe = Ctx().universe;
  spec.n = n;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(seed);
  return workload::GenerateCloud(spec, &rng);
}

HostOptions BaseOptions() {
  HostOptions options;
  options.context = Ctx();
  options.params = Params();
  return options;
}

/// Polls `predicate` for up to two seconds.
bool Eventually(const std::function<bool()>& predicate) {
  for (int i = 0; i < 400; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

/// A host behind one of the two drivers, plus a way to dial it.
class Served {
 public:
  virtual ~Served() = default;
  virtual HostCore& host() = 0;
  /// A fresh client connection.
  virtual std::unique_ptr<net::ByteStream> Dial() = 0;
  /// Waits until every dialed connection has been settled.
  virtual void Quiesce() = 0;
};

/// Blocking driver: each dial serves one SyncServer::ServeConnection over
/// a pipe on its own thread.
class PipeServed : public Served {
 public:
  PipeServed(PointSet canonical, const HostOptions& options)
      : server_(std::move(canonical), Blocking(options)) {}
  ~PipeServed() override { Quiesce(); }

  HostCore& host() override { return server_; }

  std::unique_ptr<net::ByteStream> Dial() override {
    auto [server_end, client_end] = net::PipeStream::CreatePair();
    threads_.emplace_back([this, end = std::move(server_end)]() mutable {
      server_.ServeConnection(end.get());
    });
    return std::move(client_end);
  }

  void Quiesce() override {
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

 private:
  static SyncServerOptions Blocking(const HostOptions& options) {
    SyncServerOptions out;
    static_cast<HostOptions&>(out) = options;
    return out;
  }

  SyncServer server_;
  std::vector<std::thread> threads_;
};

/// Reactor driver: one AsyncSyncServer shard on loopback TCP.
class TcpServed : public Served {
 public:
  TcpServed(PointSet canonical, const HostOptions& options)
      : server_(std::move(canonical), Reactor(options)) {
    EXPECT_TRUE(server_.Start(net::TcpListener::Listen("127.0.0.1", 0)));
  }
  ~TcpServed() override { server_.Stop(); }

  HostCore& host() override { return server_; }

  std::unique_ptr<net::ByteStream> Dial() override {
    return net::TcpStream::Connect("127.0.0.1", server_.port());
  }

  void Quiesce() override {
    EXPECT_TRUE(Eventually(
        [this] { return server_.metrics().active_sessions == 0; }));
  }

 private:
  static AsyncSyncServerOptions Reactor(const HostOptions& options) {
    AsyncSyncServerOptions out;
    static_cast<HostOptions&>(out) = options;
    out.shards = 1;
    return out;
  }

  AsyncSyncServer server_;
};

enum class Driver { kBlocking, kReactor };

class ServingCoreTest : public ::testing::TestWithParam<Driver> {
 protected:
  std::unique_ptr<Served> Serve(PointSet canonical,
                                const HostOptions& options) {
    if (GetParam() == Driver::kBlocking) {
      return std::make_unique<PipeServed>(std::move(canonical), options);
    }
    return std::make_unique<TcpServed>(std::move(canonical), options);
  }

  static SyncClient Client() {
    SyncClientOptions options;
    options.context = Ctx();
    options.params = Params();
    return SyncClient(options);
  }
};

TEST_P(ServingCoreTest, StatsVerbAnswersWithTheRegistry) {
  const std::unique_ptr<Served> served =
      Serve(Cloud(32, 1), BaseOptions());
  std::string text;
  const std::unique_ptr<net::ByteStream> stream = served->Dial();
  ASSERT_NE(stream, nullptr);
  ASSERT_TRUE(FetchStats(stream.get(), &text));
  served->Quiesce();

  EXPECT_EQ(text.rfind("# HELP ", 0), 0u);
  EXPECT_NE(text.find("rsr_sync_connections_accepted_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE rsr_sync_bytes_total counter"),
            std::string::npos);
  const SyncServerMetrics metrics = served->host().metrics();
  EXPECT_EQ(metrics.per_protocol.at(kStatsLabel).syncs, 1u);
  EXPECT_EQ(metrics.active_sessions, 0u);
}

TEST_P(ServingCoreTest, LogFetchServesTheTailAndRejectsMalformedFetch) {
  replica::Changelog changelog;
  HostOptions options = BaseOptions();
  options.changelog = &changelog;
  const std::unique_ptr<Served> served = Serve(Cloud(96, 4242), options);

  workload::ChurnSpec churn;
  churn.fraction = 0.0;
  churn.min_updates = 1;
  Rng rng(61);
  for (int i = 0; i < 2; ++i) {
    const workload::ChurnBatch batch = workload::MakeChurnBatch(
        served->host().canonical(), Ctx().universe, churn, &rng);
    served->host().ApplyUpdate(batch.inserts, batch.erases);
  }
  ASSERT_EQ(served->host().replica_seq(), 2u);

  {
    const std::unique_ptr<net::ByteStream> stream = served->Dial();
    ASSERT_NE(stream, nullptr);
    net::FramedStream framed(stream.get());
    LogFetchFrame fetch;
    fetch.from_seq = 0;
    ASSERT_TRUE(framed.Send(EncodeLogFetch(fetch)));
    transport::Message reply;
    ASSERT_EQ(framed.Receive(&reply), net::FramedStream::RecvStatus::kMessage);
    LogBatchFrame batch;
    ASSERT_TRUE(DecodeLogBatch(reply, Ctx().universe,
                               recon::ExactReconStrataConfig(Ctx().seed),
                               &batch));
    EXPECT_TRUE(batch.ok);
    EXPECT_TRUE(batch.complete);
    EXPECT_FALSE(batch.dirty);
    EXPECT_EQ(batch.last_seq, 2u);
    EXPECT_EQ(batch.entries.size(), 2u);
    stream->Close();
  }
  {
    // An "@log-fetch" whose payload does not decode.
    const std::unique_ptr<net::ByteStream> stream = served->Dial();
    ASSERT_NE(stream, nullptr);
    net::FramedStream framed(stream.get());
    ASSERT_TRUE(framed.Send(transport::MakeMessage(kLogFetchLabel,
                                                   BitWriter())));
    transport::Message reply;
    ASSERT_EQ(framed.Receive(&reply), net::FramedStream::RecvStatus::kMessage);
    RejectFrame reject;
    ASSERT_TRUE(DecodeReject(reply, &reject));
    EXPECT_EQ(reject.reason, "malformed @log-fetch frame");
    EXPECT_FALSE(reject.protocols.empty());
    stream->Close();
  }
  served->Quiesce();
  const SyncServerMetrics metrics = served->host().metrics();
  EXPECT_EQ(metrics.per_protocol.at(kLogFetchLabel).syncs, 1u);
  EXPECT_EQ(metrics.handshakes_rejected, 1u);
  EXPECT_EQ(metrics.active_sessions, 0u);
}

TEST_P(ServingCoreTest, UnknownProtocolIsRejectedWithTheProtocolList) {
  recon::ProtocolRegistry restricted;
  restricted.Register("full-transfer", "only offering",
                      [](const recon::ProtocolContext& ctx,
                         const recon::ProtocolParams&) {
                        return recon::ProtocolRegistry::Global().Create(
                            "full-transfer", ctx, recon::ProtocolParams{});
                      });
  HostOptions options = BaseOptions();
  options.registry = &restricted;
  const std::unique_ptr<Served> served = Serve(Cloud(32, 1), options);

  const std::unique_ptr<net::ByteStream> stream = served->Dial();
  ASSERT_NE(stream, nullptr);
  const SyncOutcome outcome =
      Client().Sync(stream.get(), "quadtree", Cloud(32, 2));
  served->Quiesce();

  EXPECT_FALSE(outcome.handshake_ok);
  EXPECT_EQ(outcome.result.error, SessionError::kProtocolRejected);
  EXPECT_NE(outcome.reject_reason.find("unknown protocol"), std::string::npos);
  EXPECT_EQ(outcome.server_protocols,
            std::vector<std::string>{"full-transfer"});
  EXPECT_EQ(served->host().metrics().handshakes_rejected, 1u);
  EXPECT_EQ(served->host().metrics().active_sessions, 0u);
}

/// A follower that fell off the writer's one-entry ring repairs with one
/// "@pull" through a single dialer.
struct RepairRound {
  replica::RoundRecord record;
  size_t divergence = 0;
  PointSet follower_points;
};

RepairRound PullRepair(Served* writer) {
  workload::ChurnSpec churn;
  churn.fraction = 0.0;
  churn.min_updates = 1;
  Rng rng(8);
  for (int i = 0; i < 3; ++i) {
    const workload::ChurnBatch batch = workload::MakeChurnBatch(
        writer->host().canonical(), Ctx().universe, churn, &rng);
    writer->host().ApplyUpdate(batch.inserts, batch.erases);
  }
  replica::ReplicaNodeOptions options;
  options.server.context = Ctx();
  options.server.params = Params();
  options.changelog.capacity = 1;
  options.exact_budget = 1000;  // keep the repair on the exact path
  // Trace ids are minted from entropy and travel as varints; without them
  // the round's bytes are a pure function of the sets.
  options.propagate_trace = false;
  replica::ReplicaNode follower(Cloud(96, 4242), options);
  RepairRound round;
  round.record = follower.SyncWithPeer([writer] { return writer->Dial(); });
  writer->Quiesce();
  round.divergence =
      replica::SetDivergence(follower.points(), writer->host().canonical());
  round.follower_points = follower.points();
  return round;
}

TEST_P(ServingCoreTest, PullRepairConvergesExactlyAndMatchesBlockingHost) {
  replica::Changelog changelog(replica::ChangelogOptions{1, ""});
  HostOptions options = BaseOptions();
  options.changelog = &changelog;
  const std::unique_ptr<Served> served = Serve(Cloud(96, 4242), options);
  const RepairRound round = PullRepair(served.get());

  EXPECT_EQ(round.record.path, replica::RoundRecord::Path::kRepairExact)
      << round.record.error_detail;
  EXPECT_TRUE(round.record.ok);
  EXPECT_EQ(round.record.protocol, "riblt-oneshot");
  EXPECT_EQ(round.record.seq_after, 3u);
  EXPECT_FALSE(round.record.dirty_after);
  EXPECT_EQ(round.divergence, 0u);
  EXPECT_EQ(served->host().metrics().per_protocol.at("@pull:riblt-oneshot")
                .syncs,
            1u);

  // The same round against the blocking host: same path, estimate, bytes
  // and reconciled set.
  replica::Changelog reference_log(replica::ChangelogOptions{1, ""});
  HostOptions reference_options = BaseOptions();
  reference_options.changelog = &reference_log;
  PipeServed reference(Cloud(96, 4242), reference_options);
  const RepairRound expected = PullRepair(&reference);
  EXPECT_EQ(round.record.path, expected.record.path);
  EXPECT_EQ(round.record.est_delta, expected.record.est_delta);
  EXPECT_EQ(round.record.peer_seq, expected.record.peer_seq);
  EXPECT_EQ(round.record.bytes_sent, expected.record.bytes_sent);
  EXPECT_EQ(round.record.bytes_received, expected.record.bytes_received);
  EXPECT_EQ(round.follower_points, expected.follower_points);
}

/// Reads frames until the host ends the connection; true if it closed.
bool HostHangsUp(net::FramedStream* framed) {
  transport::Message ignored;
  for (int i = 0; i < 16; ++i) {
    if (framed->Receive(&ignored) != net::FramedStream::RecvStatus::kMessage) {
      return true;
    }
  }
  return false;
}

transport::Message Varints(const std::string& label,
                           const std::vector<uint64_t>& values) {
  BitWriter w;
  for (uint64_t v : values) w.WriteVarint(v);
  return transport::MakeMessage(label, std::move(w));
}

TEST_P(ServingCoreTest, HostSurvivesHostileCountsAndServesTheNextClient) {
  const std::unique_ptr<Served> served = Serve(Cloud(64, 3), BaseOptions());
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  {
    // "@pull" hosts the adaptive quadtree's Alice; ask it for 2^40 cells.
    const std::unique_ptr<net::ByteStream> stream = served->Dial();
    ASSERT_NE(stream, nullptr);
    net::FramedStream framed(stream.get());
    PullFrame pull;
    pull.protocol = "quadtree-adaptive";
    ASSERT_TRUE(framed.Send(EncodePull(pull)));
    transport::Message reply;
    ASSERT_EQ(framed.Receive(&reply), net::FramedStream::RecvStatus::kMessage);
    EXPECT_EQ(reply.label, kPullAcceptLabel);
    ASSERT_EQ(framed.Receive(&reply), net::FramedStream::RecvStatus::kMessage);
    EXPECT_EQ(reply.label, "qt-strata");
    ASSERT_TRUE(framed.Send(Varints("qt-level-request", {3, kHuge, 0})));
    EXPECT_TRUE(HostHangsUp(&framed));
    stream->Close();
  }
  {
    // "@hello" hosts exact-iblt's Bob; claim 2^40 cells.
    const std::unique_ptr<net::ByteStream> stream = served->Dial();
    ASSERT_NE(stream, nullptr);
    net::FramedStream framed(stream.get());
    HelloFrame hello;
    hello.protocol = "exact-iblt";
    ASSERT_TRUE(framed.Send(EncodeHello(hello)));
    transport::Message reply;
    ASSERT_EQ(framed.Receive(&reply), net::FramedStream::RecvStatus::kMessage);
    EXPECT_EQ(reply.label, kAcceptLabel);
    ASSERT_TRUE(framed.Send(Varints("exact-iblt", {kHuge})));
    for (;;) {
      ASSERT_EQ(framed.Receive(&reply),
                net::FramedStream::RecvStatus::kMessage);
      if (reply.label == kResultLabel) break;
    }
    ResultFrame result;
    ASSERT_TRUE(DecodeResult(reply, Ctx().universe, &result));
    EXPECT_FALSE(result.result.success);
    EXPECT_EQ(result.result.error, SessionError::kMalformedMessage);
    stream->Close();
  }
  served->Quiesce();

  // The host is still up and serves the next client correctly.
  const PointSet client_points = Cloud(64, 4);
  const std::unique_ptr<net::ByteStream> stream = served->Dial();
  ASSERT_NE(stream, nullptr);
  const SyncOutcome outcome =
      Client().Sync(stream.get(), "quadtree-adaptive", client_points);
  served->Quiesce();
  ASSERT_TRUE(outcome.handshake_ok) << outcome.error_detail;
  const auto reconciler =
      recon::MakeReconciler("quadtree-adaptive", Ctx(), Params());
  transport::Channel channel;
  const recon::ReconResult expected =
      reconciler->Run(client_points, served->host().canonical(), &channel);
  EXPECT_EQ(outcome.result.success, expected.success);
  EXPECT_EQ(outcome.result.bob_final, expected.bob_final);

  const SyncServerMetrics metrics = served->host().metrics();
  EXPECT_EQ(metrics.per_protocol.at("@pull:quadtree-adaptive").failures, 1u);
  EXPECT_EQ(metrics.per_protocol.at("exact-iblt").failures, 1u);
  EXPECT_EQ(metrics.active_sessions, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothDrivers, ServingCoreTest,
                         ::testing::Values(Driver::kBlocking,
                                           Driver::kReactor),
                         [](const ::testing::TestParamInfo<Driver>& driver) {
                           return driver.param == Driver::kBlocking
                                      ? "Blocking"
                                      : "Reactor";
                         });

}  // namespace
}  // namespace server
}  // namespace rsr
