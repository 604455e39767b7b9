#include "omt/protocol/overlay_session.h"

#include <gtest/gtest.h>

#include "omt/core/bounds.h"
#include "omt/core/polar_grid_tree.h"
#include "omt/random/samplers.h"
#include "omt/tree/metrics.h"
#include "omt/tree/validation.h"

namespace omt {
namespace {

SessionOptions degree(int d) {
  SessionOptions options;
  options.maxOutDegree = d;
  return options;
}

/// Validates the snapshot tree and returns its metrics.
TreeMetrics check(const OverlaySession& session, int maxDegree) {
  const SessionSnapshot snap = session.snapshot();
  const ValidationResult valid =
      validate(snap.tree, {.maxOutDegree = maxDegree});
  EXPECT_TRUE(valid.ok) << valid.message;
  return computeMetrics(snap.tree, snap.positions);
}

TEST(OverlaySessionTest, EmptySessionIsJustTheSource) {
  const OverlaySession session(Point{0.0, 0.0}, degree(6));
  EXPECT_EQ(session.liveCount(), 1);
  const SessionSnapshot snap = session.snapshot();
  EXPECT_EQ(snap.tree.size(), 1);
  EXPECT_TRUE(validate(snap.tree));
}

TEST(OverlaySessionTest, SequentialJoinsStayValid) {
  Rng rng(1);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  for (int i = 0; i < 500; ++i) {
    session.join(sampleUnitBall(rng, 2));
    if (i % 100 == 99) check(session, 6);
  }
  EXPECT_EQ(session.liveCount(), 501);
  EXPECT_EQ(session.stats().joins, 500);
  check(session, 6);
}

TEST(OverlaySessionTest, DegreeTwoSession) {
  Rng rng(2);
  OverlaySession session(Point{0.0, 0.0}, degree(2));
  for (int i = 0; i < 400; ++i) session.join(sampleUnitBall(rng, 2));
  const TreeMetrics m = check(session, 2);
  EXPECT_EQ(m.maxOutDegree, 2);
}

TEST(OverlaySessionTest, JoinOutsideRadiusTriggersRegrid) {
  // A joiner so far out that covering it would need more rings than the
  // maxRingSlack memory guard allows: extendRadius() refuses, and the
  // session falls back to a full regrid that places everyone.
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  session.join(Point{0.5, 0.0});
  const auto regridsBefore = session.stats().regrids;
  const auto extendsBefore = session.stats().extends;
  const NodeId far = session.join(Point{1e6, 0.0});
  EXPECT_GT(session.stats().regrids, regridsBefore);
  EXPECT_EQ(session.stats().extends, extendsBefore);
  EXPECT_GE(session.outerRadius(), 1e6);
  EXPECT_NE(session.parentOf(far), kNoNode);
  check(session, 6);
}

TEST(OverlaySessionTest, JoinOutsideRadiusExtendsIncrementally) {
  // A joiner moderately outside the radius appends outer shells instead of
  // regridding: existing hosts keep their cells, the outer radius covers
  // the newcomer, and the tree stays valid.
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  session.join(Point{0.5, 0.0});
  const auto regridsBefore = session.stats().regrids;
  session.join(Point{10.0, 0.0});  // far outside initialRadius = 1
  EXPECT_EQ(session.stats().regrids, regridsBefore);
  EXPECT_GE(session.stats().extends, 1);
  EXPECT_GE(session.outerRadius(), 10.0);
  check(session, 6);
}

TEST(OverlaySessionTest, RingsGrowBySplittingIncrementally) {
  Rng rng(3);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  const int before = session.rings();
  for (int i = 0; i < 3000; ++i) session.join(sampleUnitBall(rng, 2));
  EXPECT_GT(session.rings(), before);
  EXPECT_GE(session.stats().splits, 3);  // log-many ring splits
  EXPECT_EQ(session.stats().regrids, 0);  // never a full rebuild
  check(session, 6);
}

TEST(OverlaySessionTest, MergesGiveRingsBackUnderMassLeave) {
  Rng rng(13);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  std::vector<NodeId> ids;
  for (int i = 0; i < 3000; ++i)
    ids.push_back(session.join(sampleUnitBall(rng, 2)));
  const int peak = session.rings();
  for (std::size_t i = 0; i + 64 < ids.size(); ++i) session.leave(ids[i]);
  EXPECT_LT(session.rings(), peak);
  EXPECT_GE(session.stats().merges, 1);
  check(session, 6);
}

TEST(OverlaySessionTest, ShedModeSkipsRepresentativeRehoming) {
  // With optional work shed, splits still relabel cells but newly elected
  // sibling representatives are not re-homed; validity is unaffected.
  Rng rng(14);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  session.setShedOptionalWork(true);
  EXPECT_TRUE(session.shedOptionalWork());
  for (int i = 0; i < 3000; ++i) session.join(sampleUnitBall(rng, 2));
  EXPECT_GE(session.stats().splits, 3);
  EXPECT_EQ(session.stats().rehomedReps, 0);
  session.setShedOptionalWork(false);
  check(session, 6);
}

TEST(OverlaySessionTest, LeavesReattachOrphans) {
  Rng rng(4);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  std::vector<NodeId> ids;
  for (int i = 0; i < 300; ++i) ids.push_back(session.join(sampleUnitBall(rng, 2)));
  // Remove every third host.
  for (std::size_t i = 0; i < ids.size(); i += 3) session.leave(ids[i]);
  EXPECT_EQ(session.liveCount(), 301 - 100);
  check(session, 6);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(session.isLive(ids[i]), i % 3 != 0);
  }
}

TEST(OverlaySessionTest, LeaveValidationErrors) {
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  const NodeId id = session.join(Point{0.5, 0.0});
  EXPECT_THROW(session.leave(0), InvalidArgument);     // the source
  EXPECT_THROW(session.leave(id + 5), InvalidArgument);  // unknown
  session.leave(id);
  EXPECT_THROW(session.leave(id), InvalidArgument);  // already gone
}

TEST(OverlaySessionTest, ChurnStressStaysValidAndBounded) {
  Rng rng(5);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  std::vector<NodeId> live;
  for (int step = 0; step < 4000; ++step) {
    const bool doJoin = live.size() < 50 || rng.uniform() < 0.55;
    if (doJoin) {
      live.push_back(session.join(sampleUnitBall(rng, 2)));
    } else {
      const std::size_t pick = rng.uniformInt(live.size());
      session.leave(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  const TreeMetrics m = check(session, 6);
  EXPECT_EQ(session.liveCount(), static_cast<std::int64_t>(live.size()) + 1);
  EXPECT_LE(m.maxOutDegree, 6);
}

TEST(OverlaySessionTest, IncrementalQualityStaysWithinDriftBound) {
  // Incremental maintenance never re-places old hosts wholesale, so it
  // trades some radius for O(polylog) events: the factor over the offline
  // build is looser than a fresh build's but must stay within the constant
  // drift bound the watchdog enforces in production.
  Rng rng(6);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  for (int i = 0; i < 5000; ++i) session.join(sampleUnitBall(rng, 2));
  const SessionSnapshot snap = session.snapshot();
  const TreeMetrics online = computeMetrics(snap.tree, snap.positions);

  NodeId source = kNoNode;
  for (std::size_t i = 0; i < snap.sessionIds.size(); ++i) {
    if (snap.sessionIds[i] == 0) source = static_cast<NodeId>(i);
  }
  const PolarGridResult offline =
      buildPolarGridTree(snap.positions, source, {.maxOutDegree = 6});
  const TreeMetrics offlineMetrics =
      computeMetrics(offline.tree, snap.positions);
  EXPECT_LT(online.maxDelay, 3.5 * offlineMetrics.maxDelay);
  EXPECT_GE(online.maxDelay, radiusLowerBound(snap.positions, source) - 1e-9);
}

TEST(OverlaySessionTest, ContactCostPerJoinIsModest) {
  Rng rng(7);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  for (int i = 0; i < 2000; ++i) session.join(sampleUnitBall(rng, 2));
  const SessionStats& stats = session.stats();
  // Joins touch the joiner's cell plus an ancestor walk: far from O(n).
  EXPECT_LT(stats.contactCost / std::max<std::int64_t>(1, stats.joins), 200);
}

TEST(OverlaySessionTest, ThreeDimensionalSession) {
  Rng rng(8);
  OverlaySession session(Point{0.0, 0.0, 0.0}, degree(10));
  for (int i = 0; i < 800; ++i) session.join(sampleUnitBall(rng, 3));
  check(session, 10);
}

TEST(OverlaySessionTest, RejectsBadOptions) {
  SessionOptions bad;
  bad.maxOutDegree = 1;
  EXPECT_THROW(OverlaySession(Point{0.0, 0.0}, bad), InvalidArgument);
  bad = {};
  bad.initialRadius = 0.0;
  EXPECT_THROW(OverlaySession(Point{0.0, 0.0}, bad), InvalidArgument);
}

TEST(OverlaySessionTest, JoinDimensionMismatch) {
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  EXPECT_THROW(session.join(Point{0.0, 0.0, 0.0}), InvalidArgument);
}

TEST(OverlaySessionTest, EveryoneCanLeave) {
  Rng rng(9);
  OverlaySession session(Point{0.0, 0.0}, degree(2));
  std::vector<NodeId> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(session.join(sampleUnitBall(rng, 2)));
  for (const NodeId id : ids) session.leave(id);
  EXPECT_EQ(session.liveCount(), 1);
  const SessionSnapshot snap = session.snapshot();
  EXPECT_EQ(snap.tree.size(), 1);
}

}  // namespace
}  // namespace omt

namespace omt {
namespace {

TEST(OverlaySessionCrashTest, CrashThenRepairRestoresValidity) {
  Rng rng(40);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  std::vector<NodeId> ids;
  for (int i = 0; i < 500; ++i) ids.push_back(session.join(sampleUnitBall(rng, 2)));

  for (std::size_t i = 0; i < ids.size(); i += 7) session.crash(ids[i]);
  EXPECT_GT(session.undetectedCrashes(), 0);
  EXPECT_THROW(session.snapshot(), InvalidArgument);

  const std::int64_t replaced = session.detectAndRepair();
  EXPECT_GE(replaced, 0);
  EXPECT_EQ(session.undetectedCrashes(), 0);
  check(session, 6);
  EXPECT_EQ(session.stats().crashes,
            static_cast<std::int64_t>((ids.size() + 6) / 7));
}

TEST(OverlaySessionCrashTest, CascadingCrashes) {
  // Crash a chain: parent and child dead in the same sweep.
  OverlaySession session(Point{0.0, 0.0}, degree(2));
  const NodeId a = session.join(Point{0.3, 0.0});
  const NodeId b = session.join(Point{0.6, 0.0});
  const NodeId c = session.join(Point{0.9, 0.0});
  session.crash(a);
  session.crash(b);
  session.detectAndRepair();
  const SessionSnapshot snap = session.snapshot();
  EXPECT_TRUE(validate(snap.tree, {.maxOutDegree = 2}));
  EXPECT_EQ(session.liveCount(), 2);  // source + c
  EXPECT_TRUE(session.isLive(c));
}

TEST(OverlaySessionCrashTest, RepairWithNoCrashesIsCheap) {
  Rng rng(41);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  for (int i = 0; i < 50; ++i) session.join(sampleUnitBall(rng, 2));
  EXPECT_EQ(session.detectAndRepair(), 0);
  check(session, 6);
}

TEST(OverlaySessionCrashTest, CrashValidation) {
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  const NodeId id = session.join(Point{0.5, 0.0});
  EXPECT_THROW(session.crash(0), InvalidArgument);
  session.crash(id);
  EXPECT_THROW(session.crash(id), InvalidArgument);  // already dead
}

TEST(OverlaySessionCrashTest, MassCrashUnderChurn) {
  Rng rng(42);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  std::vector<NodeId> live;
  for (int i = 0; i < 1000; ++i) live.push_back(session.join(sampleUnitBall(rng, 2)));
  // 30% crash silently, then a detection sweep, then more joins.
  std::vector<NodeId> survivors;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (i % 3 == 0) {
      session.crash(live[i]);
    } else {
      survivors.push_back(live[i]);
    }
  }
  session.detectAndRepair();
  for (int i = 0; i < 200; ++i) session.join(sampleUnitBall(rng, 2));
  const TreeMetrics m = check(session, 6);
  EXPECT_LE(m.maxOutDegree, 6);
  for (const NodeId s : survivors) EXPECT_TRUE(session.isLive(s));
}

}  // namespace
}  // namespace omt

namespace omt {
namespace {

TEST(OverlaySessionCrashTest, MixedOperationStress) {
  // Joins, graceful leaves, silent crashes, and periodic heartbeat sweeps
  // interleaved at random; the overlay must be a valid degree-bounded
  // spanning tree at every sweep.
  Rng rng(50);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  std::vector<NodeId> live;
  for (int step = 0; step < 3000; ++step) {
    const double dice = rng.uniform();
    if (live.size() < 30 || dice < 0.5) {
      live.push_back(session.join(sampleUnitBall(rng, 2)));
    } else if (dice < 0.75) {
      const std::size_t pick = rng.uniformInt(live.size());
      session.leave(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const std::size_t pick = rng.uniformInt(live.size());
      session.crash(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    if (step % 97 == 96) {
      session.detectAndRepair();
      check(session, 6);
    }
  }
  session.detectAndRepair();
  const TreeMetrics m = check(session, 6);
  EXPECT_EQ(session.liveCount(), static_cast<std::int64_t>(live.size()) + 1);
  EXPECT_LE(m.maxOutDegree, 6);
  EXPECT_EQ(session.stats().joins,
            session.stats().leaves + session.stats().crashes +
                session.liveCount() - 1);
}

}  // namespace
}  // namespace omt

namespace omt {
namespace {

TEST(OverlaySessionCrashTest, CrashesPendingAcrossRegridAreAbsorbed) {
  // A regrid rebuilds the overlay from live hosts only, so crashes that
  // are still pending when it fires must come out fully repaired. (Splits
  // deliberately do NOT absorb pending crashes — that is
  // detectAndRepair()'s job — so the regrid here is the watchdog's
  // forceRegrid() escalation.)
  Rng rng(60);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  std::vector<NodeId> ids;
  for (int i = 0; i < 200; ++i)
    ids.push_back(session.join(sampleUnitBall(rng, 2)));
  std::vector<NodeId> victims;
  for (std::size_t i = 0; i < ids.size(); i += 11) {
    session.crash(ids[i]);
    victims.push_back(ids[i]);
  }
  EXPECT_EQ(session.undetectedCrashes(),
            static_cast<std::int64_t>(victims.size()));

  const std::int64_t regridsBefore = session.stats().regrids;
  session.forceRegrid();
  EXPECT_EQ(session.stats().regrids, regridsBefore + 1);

  EXPECT_EQ(session.undetectedCrashes(), 0);
  for (const NodeId v : victims) {
    EXPECT_FALSE(session.isLive(v));
    EXPECT_FALSE(session.isPendingCrash(v));
    EXPECT_EQ(session.parentOf(v), kNoNode);
    EXPECT_TRUE(session.childrenOf(v).empty());
  }
  check(session, 6);
  EXPECT_EQ(session.detectAndRepair(), 0);  // nothing left to find
}

TEST(OverlaySessionCrashTest, CrashesPendingAcrossSplitStayRepairable) {
  // Incremental splits relabel cells without absorbing pending crashes;
  // the crashes must survive the relabel intact and repair cleanly.
  Rng rng(67);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  std::vector<NodeId> ids;
  for (int i = 0; i < 200; ++i)
    ids.push_back(session.join(sampleUnitBall(rng, 2)));
  std::vector<NodeId> victims;
  for (std::size_t i = 0; i < ids.size(); i += 11) {
    session.crash(ids[i]);
    victims.push_back(ids[i]);
  }

  const std::int64_t splitsBefore = session.stats().splits;
  while (session.stats().splits == splitsBefore)
    session.join(sampleUnitBall(rng, 2));

  EXPECT_EQ(session.undetectedCrashes(),
            static_cast<std::int64_t>(victims.size()));
  session.detectAndRepair();
  EXPECT_EQ(session.undetectedCrashes(), 0);
  for (const NodeId v : victims) EXPECT_FALSE(session.isLive(v));
  check(session, 6);
}

TEST(OverlaySessionCrashTest, LocalRepairClearsSnapshotPrecondition) {
  Rng rng(61);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  std::vector<NodeId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(session.join(sampleUnitBall(rng, 2)));

  session.crash(ids[10]);
  session.crash(ids[20]);
  EXPECT_THROW(session.snapshot(), InvalidArgument);

  session.repairCrashed(ids[10]);
  EXPECT_EQ(session.undetectedCrashes(), 1);
  EXPECT_THROW(session.snapshot(), InvalidArgument);  // one still pending

  session.repairCrashed(ids[20]);
  EXPECT_EQ(session.undetectedCrashes(), 0);
  check(session, 6);

  // Preconditions: only a pending crash can be locally repaired.
  EXPECT_THROW(session.repairCrashed(ids[10]), InvalidArgument);  // purged
  EXPECT_THROW(session.repairCrashed(ids[30]), InvalidArgument);  // live
}

TEST(OverlaySessionCrashTest, AccountingUnderInterleavedJoinCrashLeave) {
  Rng rng(62);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  std::vector<NodeId> live;
  std::vector<NodeId> pending;
  for (int step = 0; step < 600; ++step) {
    const double dice = rng.uniform();
    if (live.size() < 20 || dice < 0.5) {
      live.push_back(session.join(sampleUnitBall(rng, 2)));
    } else if (dice < 0.7) {
      const std::size_t pick = rng.uniformInt(live.size());
      session.leave(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else if (dice < 0.9 || pending.empty()) {
      const std::size_t pick = rng.uniformInt(live.size());
      session.crash(live[pick]);
      pending.push_back(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      session.repairCrashed(pending.back());
      pending.pop_back();
    }
    // Regrids absorb all pending crashes as a side effect.
    for (std::size_t i = 0; i < pending.size();) {
      if (!session.isPendingCrash(pending[i])) {
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
    ASSERT_EQ(session.undetectedCrashes(),
              static_cast<std::int64_t>(pending.size()))
        << "step " << step;
    ASSERT_EQ(session.liveCount(), static_cast<std::int64_t>(live.size()) + 1)
        << "step " << step;
  }
  for (const NodeId dead : pending) session.repairCrashed(dead);
  EXPECT_EQ(session.undetectedCrashes(), 0);
  check(session, 6);
}

/// First live host whose parent and grandparent are both live non-source
/// hosts and whose backup hint points at that grandparent.
NodeId depthTwoHost(const OverlaySession& session) {
  for (NodeId id = 1; id < session.hostCount(); ++id) {
    if (!session.isLive(id)) continue;
    const NodeId p = session.parentOf(id);
    if (p == kNoNode || p == 0 || !session.isLive(p)) continue;
    const NodeId gp = session.parentOf(p);
    if (gp == kNoNode || gp == 0 || !session.isLive(gp)) continue;
    if (session.backupParentOf(id) == gp) return id;
  }
  return kNoNode;
}

TEST(OverlaySessionCrashTest, BackupParentRepairsOrphanInOneContactHop) {
  Rng rng(65);
  OverlaySession session(Point{0.0, 0.0}, degree(2));
  for (int i = 0; i < 40; ++i) session.join(sampleUnitBall(rng, 2));

  const NodeId v = depthTwoHost(session);
  ASSERT_NE(v, kNoNode);
  const NodeId p = session.parentOf(v);
  const NodeId gp = session.parentOf(p);

  // Purging p frees exactly the slot p held at gp, so the first orphan
  // whose backup hint is gp re-attaches there in O(1) contacts.
  session.crash(p);
  const RepairReport report = session.repairCrashed(p);
  EXPECT_GE(report.orphansReplaced, 1);
  EXPECT_GE(report.backupHits, 1);
  EXPECT_EQ(report.backupHits + report.fallbacks, report.orphansReplaced);
  EXPECT_EQ(session.stats().backupHits, report.backupHits);
  bool someOrphanLandedOnGp = false;
  for (const NodeId child : session.childrenOf(gp))
    someOrphanLandedOnGp = someOrphanLandedOnGp || child == v ||
                           session.backupParentOf(child) == gp;
  EXPECT_TRUE(someOrphanLandedOnGp);
  check(session, 2);
}

TEST(OverlaySessionCrashTest, DeadBackupFallsBackToFullPlacement) {
  Rng rng(66);
  OverlaySession session(Point{0.0, 0.0}, degree(2));
  for (int i = 0; i < 40; ++i) session.join(sampleUnitBall(rng, 2));

  const NodeId v = depthTwoHost(session);
  ASSERT_NE(v, kNoNode);
  const NodeId p = session.parentOf(v);
  const NodeId gp = session.parentOf(p);

  // Both the parent and the backup die: v's repair must degrade to the
  // full placement path, never attach to the dead backup.
  session.crash(gp);
  session.crash(p);
  const RepairReport report = session.repairCrashed(p);
  EXPECT_GE(report.orphansReplaced, 1);
  EXPECT_GE(report.fallbacks, 1);
  EXPECT_TRUE(session.isLive(v));
  EXPECT_NE(session.parentOf(v), gp);
  if (session.isPendingCrash(gp)) session.repairCrashed(gp);
  EXPECT_EQ(session.undetectedCrashes(), 0);
  check(session, 2);
}

TEST(OverlaySessionCrashTest, MigrateRehomesAndValidates) {
  Rng rng(63);
  OverlaySession session(Point{0.0, 0.0}, degree(6));
  std::vector<NodeId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(session.join(sampleUnitBall(rng, 2)));

  // A wrongful eviction: the host walks away from its parent and re-homes;
  // the tree stays valid and the membership unchanged.
  const NodeId mover = ids[40];
  const std::int64_t liveBefore = session.liveCount();
  const RepairReport report = session.migrate(mover);
  EXPECT_EQ(report.orphansReplaced, 1);
  EXPECT_GE(report.contacts, 2);  // goodbye + at least one candidate
  EXPECT_TRUE(session.isLive(mover));
  EXPECT_EQ(session.liveCount(), liveBefore);
  check(session, 6);

  EXPECT_THROW(session.migrate(session.sourceId()), InvalidArgument);
  session.crash(ids[41]);
  EXPECT_THROW(session.migrate(ids[41]), InvalidArgument);  // dead host
  session.repairCrashed(ids[41]);
}

TEST(OverlaySessionCrashTest, LocalRepairStressMatchesSweepResult) {
  // Repair every crash locally under churn; the overlay must stay a valid
  // degree-bounded spanning tree just as it does under the global sweep.
  Rng rng(64);
  OverlaySession session(Point{0.0, 0.0}, degree(3));
  std::vector<NodeId> live;
  for (int step = 0; step < 1500; ++step) {
    const double dice = rng.uniform();
    if (live.size() < 30 || dice < 0.5) {
      live.push_back(session.join(sampleUnitBall(rng, 2)));
    } else if (dice < 0.7) {
      const std::size_t pick = rng.uniformInt(live.size());
      session.leave(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const std::size_t pick = rng.uniformInt(live.size());
      const NodeId victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      session.crash(victim);
      if (session.isPendingCrash(victim)) session.repairCrashed(victim);
    }
  }
  EXPECT_EQ(session.undetectedCrashes(), 0);
  const TreeMetrics m = check(session, 3);
  EXPECT_LE(m.maxOutDegree, 3);
  EXPECT_GT(session.stats().backupHits, 0);
}

}  // namespace
}  // namespace omt
