#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "omt/common/error.h"
#include "omt/core/polar_grid_tree.h"
#include "omt/random/samplers.h"
#include "omt/sim/dataplane/chaos.h"
#include "omt/sim/dataplane/engine.h"
#include "omt/sim/dataplane/link.h"
#include "omt/sim/dataplane/recovery.h"

namespace omt::dataplane {
namespace {

std::vector<Point> workload(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  return sampleDiskWithCenterSource(rng, n, 2);
}

// ---------------------------------------------------------------- recovery

TEST(DataplaneRecoveryTest, UnwrapSeqPicksNearestCandidate) {
  EXPECT_EQ(unwrapSeq(0, 0), 0u);
  EXPECT_EQ(unwrapSeq(41, 40), 41u);
  EXPECT_EQ(unwrapSeq(7, 4'000'000'000u), kSeqSpace + 7);
  EXPECT_EQ(unwrapSeq(4'000'000'000u, kSeqSpace + 7), 4'000'000'000u);
  // Exactly at the wrap boundary: the previous sequence wins over the one
  // 2^32 away.
  EXPECT_EQ(unwrapSeq(0xFFFFFFFFu, kSeqSpace), kSeqSpace - 1);
  // Many epochs in: the reference's epoch carries over.
  const std::uint64_t ref = 5 * kSeqSpace + 123;
  EXPECT_EQ(unwrapSeq(124, ref), 5 * kSeqSpace + 124);
  EXPECT_EQ(unwrapSeq(wireSeq(ref + 1), ref), ref + 1);
}

TEST(DataplaneRecoveryTest, ReorderWindowRoundsCapacityAndIndexesModulo) {
  ReorderWindow window(100);
  EXPECT_EQ(window.capacity(), 128);  // rounded up to a multiple of 64

  window.set(5);
  window.set(130);
  EXPECT_TRUE(window.test(5));
  EXPECT_TRUE(window.test(130));
  // 130 and 2 collide modulo 128 — the engine never parks two sequences a
  // full window apart, but the bitmap itself is just modular.
  EXPECT_TRUE(window.test(2));
  window.clear(130);
  EXPECT_FALSE(window.test(2));
  EXPECT_TRUE(window.test(5));
}

TEST(DataplaneRecoveryTest, NackBackoffAdvancesToCapAndResets) {
  NackBackoff backoff(1e-3, 2.0, 8e-3);
  EXPECT_DOUBLE_EQ(backoff.current(), 1e-3);
  backoff.advance();
  backoff.advance();
  EXPECT_DOUBLE_EQ(backoff.current(), 4e-3);
  backoff.advance();
  EXPECT_DOUBLE_EQ(backoff.current(), 8e-3);
  EXPECT_TRUE(backoff.atCap());
  backoff.advance();  // capped: stays put
  EXPECT_DOUBLE_EQ(backoff.current(), 8e-3);
  backoff.reset();
  EXPECT_DOUBLE_EQ(backoff.current(), 1e-3);
  EXPECT_FALSE(backoff.atCap());
}

TEST(DataplaneRecoveryTest, RetransmitWindowEvictsOldestAndCounts) {
  RetransmitWindow ring(4, 100);
  EXPECT_FALSE(ring.holds(100));
  for (int i = 0; i < 6; ++i) ring.insert();  // delivered 100..105
  EXPECT_EQ(ring.head(), 106u);
  EXPECT_EQ(ring.occupancy(), 4);
  EXPECT_EQ(ring.evictions(), 2);
  EXPECT_FALSE(ring.holds(100));
  EXPECT_FALSE(ring.holds(101));
  EXPECT_TRUE(ring.holds(102));
  EXPECT_TRUE(ring.holds(105));
  EXPECT_FALSE(ring.holds(106));  // not delivered yet
}

// ---------------------------------------------------------------- link

TEST(DataplaneLinkTest, DisabledChainMatchesPlainIidDraws) {
  GilbertElliottOptions off;
  GilbertElliottChain chain;
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(chain.roll(a, off, 0.3), b.uniform() < 0.3);
  }
  // Same raw stream position afterwards: exactly one draw per roll.
  EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(DataplaneLinkTest, DisabledChainDrawsNothingAtZeroLoss) {
  GilbertElliottOptions off;
  GilbertElliottChain chain;
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(chain.roll(a, off, 0.0));
  EXPECT_EQ(a.nextU64(), b.nextU64());  // zero draws consumed
}

TEST(DataplaneLinkTest, ChainConvergesToStationaryLoss) {
  GilbertElliottOptions burst;
  burst.burstLossProbability = 0.5;
  burst.burstStartProbability = 0.02;
  burst.burstStopProbability = 0.1;
  ASSERT_TRUE(burst.enabled());
  EXPECT_NEAR(burst.stationaryBadProbability(), 0.02 / 0.12, 1e-12);

  GilbertElliottChain chain;
  Rng rng(3);
  const int trials = 200000;
  int losses = 0;
  for (int i = 0; i < trials; ++i)
    if (chain.roll(rng, burst, 0.01)) ++losses;
  const double observed = static_cast<double>(losses) / trials;
  const double expected = burst.stationaryLossProbability(0.01);
  EXPECT_NEAR(observed, expected, 0.01);
}

TEST(DataplaneLinkTest, UplinkQueueSerializesAndTailDrops) {
  UplinkQueue queue(3);
  // Three instant enqueues: departures pipeline behind one another.
  EXPECT_DOUBLE_EQ(queue.enqueue(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(queue.enqueue(0.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(queue.enqueue(0.0, 1.0), 3.0);
  // Full: the fourth is tail-dropped.
  EXPECT_LT(queue.enqueue(0.0, 1.0), 0.0);
  EXPECT_EQ(queue.drops(), 1);
  // Drain times: one job is left after the second departs, none after the
  // third.
  EXPECT_DOUBLE_EQ(queue.drainedTo(1), 2.0);
  EXPECT_DOUBLE_EQ(queue.drainedTo(0), 3.0);
  EXPECT_THROW(queue.drainedTo(3), InvalidArgument);
  EXPECT_EQ(queue.occupancy(0.5), 3);
  // After the first departure a slot frees up.
  EXPECT_EQ(queue.occupancy(1.0), 2);
  EXPECT_DOUBLE_EQ(queue.enqueue(1.0, 1.0), 4.0);
  EXPECT_EQ(queue.peakOccupancy(), 3);
}

TEST(DataplaneLinkTest, LossBurstWindowsCombine) {
  std::vector<LossBurstWindow> windows{{1.0, 2.0, 0.5}, {1.5, 3.0, 0.5}};
  EXPECT_DOUBLE_EQ(lossBurstBoostAt(windows, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(lossBurstBoostAt(windows, 1.2), 0.5);
  EXPECT_DOUBLE_EQ(lossBurstBoostAt(windows, 1.7), 0.75);
  EXPECT_DOUBLE_EQ(lossBurstBoostAt(windows, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(lossBurstBoostAt(windows, 3.0), 0.0);
}

// ---------------------------------------------------------------- engine

TEST(DataplaneEngineTest, ZeroLossDeliversEverythingInOrder) {
  const auto points = workload(300, 11);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  DataplaneOptions options;
  options.packetCount = 200;
  options.recordDeliveries = true;
  const DataplaneResult result = runDataplane(built.tree, points, options);

  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.stalled);
  EXPECT_EQ(result.undelivered, 0);
  EXPECT_EQ(result.deliveries, 300 * 200);
  EXPECT_EQ(result.packetsSent, 299 * 200);  // every non-root link once
  EXPECT_EQ(result.linkLosses, 0);
  EXPECT_EQ(result.queueDrops, 0);
  EXPECT_EQ(result.duplicatesSuppressed, 0);
  EXPECT_EQ(result.nacksSent, 0);
  EXPECT_EQ(result.retransmits, 0);

  const std::uint64_t want = expectedLogHash(0, 200);
  for (const NodeReport& node : result.nodes) {
    EXPECT_EQ(node.delivered, 200);
    EXPECT_EQ(node.nextExpected, 200u);
    EXPECT_EQ(node.logHash, want);
  }
  // The recorded log really is the identity sequence.
  const auto& log = result.deliveryLog[7];
  ASSERT_EQ(log.size(), 200u);
  for (std::size_t i = 0; i < log.size(); ++i) EXPECT_EQ(log[i], i);
}

TEST(DataplaneEngineTest, SingleNodeTreeDelivers) {
  MulticastTree tree(1, 0);
  tree.finalize();
  const std::vector<Point> points{Point{0.0, 0.0}};
  DataplaneOptions options;
  options.packetCount = 50;
  const DataplaneResult result = runDataplane(tree, points, options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.deliveries, 50);
  EXPECT_EQ(result.packetsSent, 0);
}

TEST(DataplaneEngineTest, LossyRunRecoversExactlyOnce) {
  const auto points = workload(250, 12);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  DataplaneOptions options;
  options.packetCount = 300;
  options.lossProbability = 0.05;
  options.burst.burstStartProbability = 0.01;
  options.burst.burstLossProbability = 0.5;
  options.burst.burstStopProbability = 0.2;
  options.seed = 99;
  const DataplaneResult result = runDataplane(built.tree, points, options);

  EXPECT_TRUE(result.completed) << result.undelivered << " undelivered";
  EXPECT_GT(result.linkLosses, 0);
  EXPECT_GT(result.nacksSent, 0);
  EXPECT_GT(result.retransmits, 0);
  const std::uint64_t want = expectedLogHash(0, 300);
  for (const NodeReport& node : result.nodes) {
    EXPECT_EQ(node.delivered, 300);
    EXPECT_EQ(node.logHash, want);
  }
  EXPECT_GT(result.deliveryLatency.p99(), 0.0);
  EXPECT_GE(result.deliveryLatency.p99(), result.deliveryLatency.p50());
}

TEST(DataplaneEngineTest, SequenceNumbersWrapAround) {
  const auto points = workload(120, 13);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  DataplaneOptions options;
  options.packetCount = 500;
  options.firstSequence = 0xFFFFFFFFu - 199;  // wraps after 200 packets
  options.lossProbability = 0.03;
  options.seed = 5;
  const DataplaneResult result = runDataplane(built.tree, points, options);

  EXPECT_TRUE(result.completed);
  const std::uint64_t first = 0xFFFFFFFFu - 199;
  const std::uint64_t want = expectedLogHash(wireSeq(first), 500);
  for (const NodeReport& node : result.nodes) {
    EXPECT_EQ(node.delivered, 500);
    EXPECT_EQ(node.nextExpected, first + 500);  // crossed into epoch 1
    EXPECT_EQ(node.logHash, want);
  }
  EXPECT_GT(result.retransmits, 0);  // recovery worked across the wrap
}

TEST(DataplaneEngineTest, CrashRehomingResumesTheStream) {
  const auto points = workload(400, 14);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  // Crash an internal node (one with children) mid-stream.
  NodeId victim = kNoNode;
  for (NodeId v = 1; v < built.tree.size(); ++v) {
    if (built.tree.childrenOf(v).size() >= 2) {
      victim = v;
      break;
    }
  }
  ASSERT_NE(victim, kNoNode);
  const auto orphanCount =
      static_cast<std::int64_t>(built.tree.childrenOf(victim).size());

  DataplaneOptions options;
  options.packetCount = 600;
  options.crashes = {{victim, 0.02}};  // 200 packets in
  const DataplaneResult result = runDataplane(built.tree, points, options);

  EXPECT_TRUE(result.completed) << result.undelivered << " undelivered";
  EXPECT_EQ(result.crashedNodes, 1);
  EXPECT_EQ(result.rehomedChildren, orphanCount);
  const std::uint64_t want = expectedLogHash(0, 600);
  for (NodeId v = 0; v < built.tree.size(); ++v) {
    const NodeReport& node = result.nodes[static_cast<std::size_t>(v)];
    if (v == victim) {
      EXPECT_TRUE(node.crashed);
      EXPECT_LT(node.delivered, 600);
      continue;
    }
    EXPECT_EQ(node.delivered, 600);
    EXPECT_EQ(node.logHash, want);
  }
}

TEST(DataplaneEngineTest, EvictionMissRefetchesFromGrandparent) {
  // A 3-node chain root -> mid -> leaf where mid's retransmit ring is tiny.
  // A hard mid-stream loss burst opens a large gap; by the time the leaf's
  // NACKs reach mid, the early sequences are evicted there and must be
  // refetched from the root.
  MulticastTree tree(3, 0);
  tree.attach(1, 0, EdgeKind::kCore);
  tree.attach(2, 1, EdgeKind::kCore);
  tree.finalize();
  const std::vector<Point> points{Point{0.0, 0.0}, Point{0.3, 0.0},
                                  Point{0.6, 0.0}};
  DataplaneOptions options;
  options.packetCount = 3000;
  options.retransmitBufferPerNode = {4096, 64, 64};  // mid evicts eagerly
  options.propagationFactor = 0.01;  // fast links: many recovery rounds
  options.lossBursts = {{0.05, 0.1, 0.95}};
  options.seed = 21;
  const DataplaneResult result = runDataplane(tree, points, options);

  EXPECT_TRUE(result.completed) << result.undelivered << " undelivered";
  EXPECT_GT(result.evictionMisses, 0);
  EXPECT_GT(result.refetches, 0);
  EXPECT_GT(result.retransmitEvictions, 0);
  const std::uint64_t want = expectedLogHash(0, 3000);
  EXPECT_EQ(result.nodes[2].logHash, want);
}

/// root -> mid -> leaf on a line, 0.3 apart: every one-way hop takes
/// 0.3 s, far longer than the 1e-4 s packet spacing and the 1e-6 s
/// serialization, so repair timing is readable off the geometry.
struct LineChain {
  static constexpr double kHop = 0.3;
  MulticastTree tree{3, 0};
  std::vector<Point> points{Point{0.0, 0.0}, Point{kHop, 0.0},
                            Point{2 * kHop, 0.0}};
  DataplaneOptions options;

  LineChain() {
    tree.attach(1, 0, EdgeKind::kCore);
    tree.attach(2, 1, EdgeKind::kCore);
    tree.finalize();
    options.packetCount = 100;
    options.recordDeliveries = true;
  }

  /// A loss-burst window that drops exactly the departure at `time`.
  static LossBurstWindow dropAt(double time) {
    return {time - 5e-5, time + 5e-5, 0.999999};
  }

  /// Delivery time of `seq` at `node`.
  static double deliveredAt(const DataplaneResult& r, NodeId node,
                            std::uint64_t seq) {
    const auto& log = r.deliveryLog[static_cast<std::size_t>(node)];
    const auto it = std::find(log.begin(), log.end(), seq);
    EXPECT_NE(it, log.end()) << "seq " << seq << " never delivered";
    if (it == log.end()) return -1.0;
    return r.deliveryTimes[static_cast<std::size_t>(node)]
                          [static_cast<std::size_t>(it - log.begin())];
  }
};

TEST(DataplaneEngineTest, FirstNackLeavesOnGapDetection) {
  // Drop only packet 10 on root -> mid (it departs at 10 * 1e-4 + 1e-6).
  // Packet 11 lands one spacing later and proves the loss, so mid's NACK
  // leaves at once and the repair lands one mid-root round trip after
  // that: packet 10 is late by one RTT plus one spacing.
  LineChain c;
  const DataplaneResult clean = runDataplane(c.tree, c.points, c.options);
  ASSERT_TRUE(clean.completed);
  c.options.lossBursts = {LineChain::dropAt(10 * 1e-4 + 1e-6)};
  const DataplaneResult lossy = runDataplane(c.tree, c.points, c.options);

  ASSERT_TRUE(lossy.completed) << lossy.undelivered << " undelivered";
  ASSERT_EQ(lossy.linkLosses, 1);
  EXPECT_EQ(lossy.nacksSent, 1);  // no retry: the repair was not overdue
  EXPECT_EQ(lossy.retransmits, 1);
  const double rtt = 2 * LineChain::kHop + c.options.serializationTime;
  const double epsilon = 2 * c.options.packetInterval;
  for (const NodeId node : {NodeId{1}, NodeId{2}}) {
    SCOPED_TRACE(testing::Message() << "node " << node);
    EXPECT_LE(LineChain::deliveredAt(lossy, node, 10),
              LineChain::deliveredAt(clean, node, 10) + rtt + epsilon);
  }
  EXPECT_EQ(lossy.nodes[2].logHash, expectedLogHash(0, 100));
}

TEST(DataplaneEngineTest, RelayServesRetryOfLostRefetchedCopy) {
  // Mid's 4-slot ring has evicted packet 10 by the time the leaf asks for
  // it, so mid refetches it from the root and relays the copy — and that
  // relayed copy is lost on its last hop too. The leaf's retry must be
  // served from the copy mid kept, with no second walk up to the root.
  LineChain c;
  c.options.retransmitBufferPerNode = {4096, 4, 4};
  const double s = c.options.serializationTime;
  const double hop = LineChain::kHop;
  // Mid forwards packet 10 at 10 * 1e-4 + 2s + hop; the leaf detects the
  // hole when packet 11 lands (1e-4 later, one hop on) and NACKs mid, which
  // refetches from the root; the root's copy reaches mid and mid relays
  // it after one more serialization.
  const double firstHop = 10 * 1e-4 + 2 * s + hop;
  const double detect = firstHop + 1e-4 + hop;
  const double relay = detect + hop + hop + s + hop + s;
  c.options.lossBursts = {LineChain::dropAt(firstHop),
                          LineChain::dropAt(relay)};
  c.options.seed = 3;
  const DataplaneResult result = runDataplane(c.tree, c.points, c.options);

  ASSERT_TRUE(result.completed) << result.undelivered << " undelivered";
  ASSERT_EQ(result.linkLosses, 2);
  EXPECT_EQ(result.evictionMisses, 1);
  EXPECT_EQ(result.refetches, 1);
  // The root's copy, mid's lost relay, and mid's resend from its copy.
  EXPECT_EQ(result.retransmits, 3);
  EXPECT_EQ(result.nodes[2].logHash, expectedLogHash(0, 100));
}

// Repair must not amplify: at <= 1% i.i.d. link loss every lost packet
// costs about one retransmit, the engine never tail-drops, and the loss
// inflates p99 delivery latency by a bounded factor over the same tree at
// zero loss. Both shapes run degree-6 Polar_Grid trees with 0.5% control
// loss. Measured over loss seeds 1-6: 1.00 retransmits per link loss; p99
// inflation 1.65-1.82x at 0.1% and 2.88-3.45x at 1% (seed 8: 1.64/1.71x
// and 2.68/3.02x). Each bound is the measured max plus 25%.
TEST(DataplaneEngineTest, RepairDoesNotAmplify) {
  constexpr double kRetransmitsPerLoss = 1.5;
  struct Shape {
    std::int64_t hosts;
    std::int64_t packets;
  };
  struct Loss {
    double rate;
    double maxP99Inflation;
  };
  for (const Shape shape : {Shape{1000, 400}, Shape{2000, 800}}) {
    const auto points = workload(shape.hosts, 1);
    const PolarGridResult built =
        buildPolarGridTree(points, 0, {.maxOutDegree = 6});
    DataplaneOptions options;
    options.packetCount = shape.packets;
    options.controlLoss = 0.005;
    options.maxOutDegree = 6;
    options.seed = 8;
    const DataplaneResult clean = runDataplane(built.tree, points, options);
    ASSERT_TRUE(clean.completed);
    ASSERT_EQ(clean.queueDrops, 0);
    for (const Loss loss : {Loss{0.001, 2.3}, Loss{0.01, 4.3}}) {
      options.lossProbability = loss.rate;
      const DataplaneResult lossy = runDataplane(built.tree, points, options);
      SCOPED_TRACE(testing::Message() << shape.hosts << " hosts, loss "
                                      << loss.rate);
      EXPECT_TRUE(lossy.completed) << lossy.undelivered << " undelivered";
      EXPECT_GT(lossy.linkLosses, 0);
      EXPECT_LE(static_cast<double>(lossy.retransmits),
                kRetransmitsPerLoss * static_cast<double>(lossy.linkLosses));
      EXPECT_EQ(lossy.queueDrops, 0);
      EXPECT_LE(lossy.deliveryLatency.p99(),
                loss.maxP99Inflation * clean.deliveryLatency.p99());
    }
  }
}

/// root -> mid -> four leaves, mid's uplink twice oversubscribed: each
/// packet costs mid 4 x 5e-5 s of serialization per 1e-4 s of stream, so
/// its forwarding backlog grows for the whole emission window.
struct OverloadedFanout {
  MulticastTree tree{6, 0};
  std::vector<Point> points{Point{0.0, 0.0},   Point{0.3, 0.0},
                            Point{0.6, 0.1},   Point{0.6, -0.1},
                            Point{0.55, 0.2},  Point{0.55, -0.2}};
  DataplaneOptions options;

  OverloadedFanout() {
    tree.attach(1, 0, EdgeKind::kCore);
    for (NodeId leaf = 2; leaf < 6; ++leaf)
      tree.attach(leaf, 1, EdgeKind::kCore);
    tree.finalize();
    options.packetCount = 2000;
    options.serializationTime = 5e-5;
    options.propagationFactor = 0.01;  // RTTs of a few ms: many NACKs
    options.recordDeliveries = true;
  }
};

TEST(DataplaneEngineTest, CrashWithPumpBacklogRehomesExactlyOnce) {
  // Mid crashes at t = 0.16 s with both its forwarding backlog and its
  // resend FIFO non-empty: an instrumented run of this scenario shows its
  // cursors 2,471 packets behind its delivery head in total and 12 NACKed
  // copies waiting for uplink headroom. The leaves re-home to the
  // root and must still deliver every packet exactly once, in order.
  OverloadedFanout f;
  f.options.lossProbability = 0.05;
  f.options.crashes = {{1, 0.16}};
  f.options.seed = 41;
  const DataplaneResult result =
      runDataplane(f.tree, f.points, f.options);

  EXPECT_TRUE(result.completed) << result.undelivered << " undelivered";
  EXPECT_EQ(result.crashedNodes, 1);
  EXPECT_EQ(result.rehomedChildren, 4);
  EXPECT_EQ(result.queueDrops, 0);
  EXPECT_GT(result.retransmits, 0);
  const std::uint64_t want = expectedLogHash(0, 2000);
  for (NodeId leaf = 2; leaf < 6; ++leaf) {
    const NodeReport& node = result.nodes[static_cast<std::size_t>(leaf)];
    EXPECT_EQ(node.delivered, 2000) << "leaf " << leaf;
    EXPECT_EQ(node.logHash, want) << "leaf " << leaf;
    const auto& log = result.deliveryLog[static_cast<std::size_t>(leaf)];
    ASSERT_EQ(log.size(), 2000u);
    for (std::size_t i = 0; i < log.size(); ++i) ASSERT_EQ(log[i], i);
  }
}

TEST(DataplaneEngineTest, BacklogBeyondTheRingSkipsToItsOldestHeld) {
  // Lossless, but mid's ring holds only 64 packets while its backlog per
  // leaf grows past 600: every cursor falls behind the ring and skips to
  // its oldest held sequence (the engine asserts that no evicted original
  // is ever forwarded). The leaves recover the skipped ranges by NACK,
  // eviction miss and refetch from the root, which holds the stream.
  OverloadedFanout f;
  f.options.retransmitBufferPerNode = {4096, 64, 64, 64, 64, 64};
  f.options.seed = 42;
  const DataplaneResult result =
      runDataplane(f.tree, f.points, f.options);

  EXPECT_TRUE(result.completed) << result.undelivered << " undelivered";
  EXPECT_EQ(result.linkLosses, 0);
  EXPECT_EQ(result.queueDrops, 0);
  EXPECT_LE(result.peakQueueDepth, f.options.queueCapacity);
  EXPECT_GT(result.evictionMisses, 0);
  EXPECT_GT(result.refetches, 0);
  EXPECT_GT(result.retransmits, 0);  // refetch serves relayed by mid
  const std::uint64_t want = expectedLogHash(0, 2000);
  for (NodeId leaf = 2; leaf < 6; ++leaf)
    EXPECT_EQ(result.nodes[static_cast<std::size_t>(leaf)].logHash, want)
        << "leaf " << leaf;
}

TEST(DataplaneEngineTest, UnrecoverableEvictionStallsDeterministically) {
  // root -> leaf with a root ring smaller than the gap a brutal loss burst
  // opens. The root has no parent to refetch from, so the stream can never
  // complete; the stall detector must end the run instead of hanging.
  MulticastTree tree(2, 0);
  tree.attach(1, 0, EdgeKind::kCore);
  tree.finalize();
  const std::vector<Point> points{Point{0.0, 0.0}, Point{0.5, 0.0}};
  DataplaneOptions options;
  options.packetCount = 400;
  options.retransmitBuffer = 8;
  options.reorderWindow = 64;
  options.propagationFactor = 0.001;
  options.lossBursts = {{0.0, 0.015, 0.999}};  // first ~150 packets lost
  options.stallTimeout = 1.0;
  options.seed = 33;
  const DataplaneResult result = runDataplane(tree, points, options);

  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.stalled);
  EXPECT_GT(result.undelivered, 0);
  EXPECT_GT(result.evictionMisses, 0);
  // NACK-storm suppression: one NACK per gap per firing under a capped
  // backoff. Over the 1s stall window that is at most
  // ceil(1 / 64e-3) + the ~7 ramp-up firings, per gap — far below the
  // hundreds an unsuppressed sender would emit.
  EXPECT_LE(result.nacksSent, 60);
  EXPECT_GT(result.nacksSent, 3);
}

TEST(DataplaneEngineTest, BoundedBuffersStayBounded) {
  const auto points = workload(200, 15);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  DataplaneOptions options;
  options.packetCount = 500;
  options.lossProbability = 0.05;
  options.reorderWindow = 128;
  options.queueCapacity = 64;
  options.propagationFactor = 0.01;  // keep the rings ahead of the BDP
  // Interior rings much smaller than the stream; the source retains the
  // whole session so every eviction miss is ultimately refetchable.
  options.retransmitBufferPerNode.assign(
      static_cast<std::size_t>(built.tree.size()), 256);
  options.retransmitBufferPerNode[0] = 4096;
  options.seed = 8;
  const DataplaneResult result = runDataplane(built.tree, points, options);

  EXPECT_LE(result.peakReorderBuffered, 128);
  EXPECT_LE(result.peakRetransmitHeld, 500);  // the source holds the stream
  EXPECT_LE(result.peakQueueDepth, 64);
  EXPECT_TRUE(result.completed) << result.undelivered << " undelivered";
}

TEST(DataplaneEngineTest, DeterministicReplay) {
  const auto points = workload(180, 16);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  DataplaneOptions options;
  options.packetCount = 250;
  options.lossProbability = 0.04;
  options.burst.burstStartProbability = 0.02;
  options.controlLoss = 0.02;
  options.crashes = {{5, 0.01}};
  options.seed = 77;

  const DataplaneResult a = runDataplane(built.tree, points, options);
  const DataplaneResult b = runDataplane(built.tree, points, options);
  EXPECT_EQ(a.deliveryLogHash, b.deliveryLogHash);
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
  EXPECT_EQ(a.packetsSent, b.packetsSent);
  EXPECT_EQ(a.nacksSent, b.nacksSent);
  EXPECT_EQ(a.simEndTime, b.simEndTime);

  // A different seed produces a different loss pattern.
  options.seed = 78;
  const DataplaneResult c = runDataplane(built.tree, points, options);
  EXPECT_NE(a.linkLosses, c.linkLosses);
}

TEST(DataplaneEngineTest, ValidationRejectsBadOptions) {
  const std::vector<Point> points{Point{0.0, 0.0}, Point{0.5, 0.0}};
  MulticastTree tree(2, 0);
  tree.attach(1, 0, EdgeKind::kLocal);
  tree.finalize();

  DataplaneOptions options;
  options.packetCount = 0;
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);

  options = {};
  options.lossProbability = 1.0;
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);

  options = {};
  options.crashes = {{0, 0.1}};  // the root must not crash
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);

  options = {};
  options.crashes = {{17, 0.1}};  // unknown node
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);

  options = {};
  options.nackBackoffCap = 1e-6;  // below the initial delay
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);

  options = {};
  options.retransmitBufferPerNode = {16};  // tree has two nodes
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);
}

TEST(DataplaneChaosHelpersTest, SampleCrashScheduleIsDeterministic) {
  const auto points = workload(100, 17);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  const auto a = sampleCrashSchedule(9, built.tree, 0.1, 1.0);
  const auto b = sampleCrashSchedule(9, built.tree, 0.1, 1.0);
  ASSERT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_NE(a[i].node, built.tree.root());
    EXPECT_GE(a[i].time, 0.0);
    EXPECT_LT(a[i].time, 1.0);
  }
  // Distinct victims.
  std::vector<NodeId> nodes;
  for (const CrashEvent& c : a) nodes.push_back(c.node);
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(std::unique(nodes.begin(), nodes.end()), nodes.end());
}

TEST(DataplaneChaosHelpersTest, LossBurstsDropNonLossWindows) {
  std::vector<DisruptionWindow> windows(3);
  windows[0].start = 1.0;
  windows[0].end = 2.0;
  windows[0].lossBoost = 0.4;
  windows[1].partition = true;  // no loss boost: dropped
  windows[2].start = 5.0;
  windows[2].end = 6.0;
  windows[2].extraDelay = 0.1;  // delay only: dropped
  const auto bursts = lossBurstsFromDisruption(windows);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_DOUBLE_EQ(bursts[0].start, 1.0);
  EXPECT_DOUBLE_EQ(bursts[0].extraLoss, 0.4);
}

}  // namespace
}  // namespace omt::dataplane
