// Delta-publication gates: the patch path must be invisible.
//
// A delta-built epoch must be bit-identical (arrays, fingerprint, epoch)
// to the full rebuild it replaced, untouched groups must never republish,
// shard rebalancing must never change any group's outcome, and the cheap
// kQuick audit must agree with kFull — including on corrupted tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "omt/service/group_manager.h"
#include "omt/service/replay.h"
#include "omt/service/script.h"

namespace omt {
namespace {

std::vector<MembershipEvent> joinBatch(GroupId group, int from, int count) {
  std::vector<MembershipEvent> batch;
  for (int i = 0; i < count; ++i)
    batch.push_back({0.0, group, ServiceEventKind::kJoin, from + i,
                     Point{0.03 * (from + i + 1), 0.01 * (i + 1)}});
  return batch;
}

TEST(ServiceDeltaTest, UntouchedGroupsNeverRepublish) {
  GroupManager manager(ServiceOptions{});
  manager.apply(joinBatch(0, 0, 6));
  manager.apply(joinBatch(1, 10, 6));
  manager.apply(joinBatch(2, 20, 6));
  const std::uint64_t epoch1 = manager.epochOf(1);
  const std::uint64_t epoch2 = manager.epochOf(2);
  const std::uint64_t fp1 = manager.routes(1)->fingerprint();

  // Ten batches that only ever touch group 0.
  for (int round = 0; round < 10; ++round) {
    const ApplyReport report = manager.apply(joinBatch(0, 100 + round, 1));
    EXPECT_EQ(report.publishes, 1);
    EXPECT_EQ(report.groupsTouched, 1);
  }
  EXPECT_EQ(manager.epochOf(1), epoch1);
  EXPECT_EQ(manager.epochOf(2), epoch2);
  EXPECT_EQ(manager.routes(1)->fingerprint(), fp1);
}

TEST(ServiceDeltaTest, PerBatchPublishesEqualTouchedGroups) {
  ScriptOptions script;
  script.groups = 12;
  script.hosts = 300;
  script.events = 4000;
  script.seed = 9;
  const auto events = generateMembershipScript(script);

  GroupManager manager(ServiceOptions{});
  for (std::size_t at = 0; at < events.size(); at += 128) {
    const auto len = std::min<std::size_t>(128, events.size() - at);
    const std::span<const MembershipEvent> window(events.data() + at, len);
    std::vector<bool> touched(static_cast<std::size_t>(script.groups), false);
    std::int64_t distinct = 0;
    for (const MembershipEvent& e : window) {
      if (!touched[static_cast<std::size_t>(e.group)]) ++distinct;
      touched[static_cast<std::size_t>(e.group)] = true;
    }
    const ApplyReport report = manager.apply(window);
    EXPECT_EQ(report.publishes, distinct);
    EXPECT_EQ(report.groupsTouched, distinct);
  }
}

// The core bit-identity oracle: 100 randomized churn scripts, each
// replayed with the delta path live-verified against the full rebuild on
// EVERY delta publish (deltaVerify asserts identicalTo: arrays,
// fingerprint, epoch), and the final tables compared against a replica
// that never took the patch path at all.
TEST(ServiceDeltaTest, DeltaMatchesFullRebuildAcrossRandomizedChurn) {
  std::int64_t deltasSeen = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    ScriptOptions script;
    script.groups = 8;
    script.hosts = 200;
    script.events = 1500;
    script.seed = seed;
    script.meanGroupSize = 14.0;
    script.crashFraction = 0.3;
    const auto events = generateMembershipScript(script);

    ServiceOptions viaDelta;
    viaDelta.deltaPublish = true;
    viaDelta.deltaVerify = true;  // hard-asserts per-publish bit-identity
    GroupManager deltaManager(viaDelta);
    replayScript(deltaManager, events, {.batchSize = 64});

    ServiceOptions viaFull;
    viaFull.deltaPublish = false;
    GroupManager fullManager(viaFull);
    replayScript(fullManager, events, {.batchSize = 64});

    ASSERT_EQ(deltaManager.stats().publishes, fullManager.stats().publishes);
    EXPECT_EQ(fullManager.stats().deltaPublishes, 0);
    deltasSeen += deltaManager.stats().deltaPublishes;
    for (const GroupId group : deltaManager.createdGroups()) {
      const auto a = deltaManager.routes(group);
      const auto b = fullManager.routes(group);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (!a) continue;
      EXPECT_TRUE(a->identicalTo(*b))
          << "seed " << seed << " group " << group
          << ": delta replica diverged from the full-rebuild replica";
    }
  }
  // The oracle is vacuous unless the patch path actually ran.
  EXPECT_GT(deltasSeen, 1000);
}

/// Graham's list-scheduling bound over `costs` (group -> rebalance weight,
/// a published table's size + 1) placed as the manager places them now:
/// maxShardLoad <= total / shards + heaviestGroupCost. The sticky
/// rebalancer keeps every placement it lets stand within it.
bool placementWithinListBound(
    const GroupManager& manager,
    const std::vector<std::pair<GroupId, std::int64_t>>& costs) {
  std::vector<std::int64_t> load(static_cast<std::size_t>(manager.shards()),
                                 0);
  std::int64_t total = 0;
  std::int64_t heaviest = 0;
  for (const auto& [group, cost] : costs) {
    load[static_cast<std::size_t>(manager.shardOf(group))] += cost;
    total += cost;
    heaviest = std::max(heaviest, cost);
  }
  const std::int64_t maxLoad = *std::max_element(load.begin(), load.end());
  return maxLoad * manager.shards() <= total + heaviest * manager.shards();
}

/// Every created group's current rebalance weight.
std::vector<std::pair<GroupId, std::int64_t>> currentCosts(
    const GroupManager& manager) {
  std::vector<std::pair<GroupId, std::int64_t>> costs;
  for (const GroupId group : manager.createdGroups()) {
    const auto table = manager.routes(group);
    costs.emplace_back(group, (table ? table->size() : 0) + 1);
  }
  return costs;
}

TEST(ServiceDeltaTest, RebalancingNeverChangesAnyGroupsTable) {
  // Four equal-size groups that all start on shard 0 of 4 (group % 4 == 0):
  // the initial placement breaks the list-scheduling bound, so the sticky
  // rebalancer must move groups. Later batches churn every group equally
  // (one leave + one join each), which keeps the spread placement balanced.
  const std::vector<GroupId> groups = {0, 4, 8, 12};
  std::vector<std::vector<MembershipEvent>> batches(1);
  for (const GroupId group : groups)
    for (const MembershipEvent& e : joinBatch(group, 0, 12))
      batches[0].push_back(e);
  for (int round = 0; round < 8; ++round) {
    std::vector<MembershipEvent>& batch = batches.emplace_back();
    for (const GroupId group : groups) {
      batch.push_back({0.0, group, ServiceEventKind::kLeave, round, Point()});
      for (const MembershipEvent& e : joinBatch(group, 100 + round, 1))
        batch.push_back(e);
    }
  }

  std::map<GroupId, std::pair<std::uint64_t, std::uint64_t>> outcomes[2];
  for (const bool rebalance : {false, true}) {
    ServiceOptions options;
    options.shards = 4;
    options.rebalanceShards = rebalance;
    GroupManager manager(options);
    for (const auto& batch : batches) manager.apply(batch);
    EXPECT_EQ(manager.quiesce(1.0), 0);
    if (rebalance) {
      EXPECT_GT(manager.stats().rebalances, 0);
      EXPECT_GT(manager.stats().migrations, 0);
      EXPECT_TRUE(placementWithinListBound(manager, currentCosts(manager)));
    } else {
      EXPECT_EQ(manager.stats().migrations, 0);
      for (const GroupId group : groups) EXPECT_EQ(manager.shardOf(group), 0);
    }
    for (const GroupId group : manager.createdGroups())
      outcomes[rebalance ? 1 : 0][group] = {
          manager.routes(group) ? manager.routes(group)->fingerprint() : 0,
          manager.epochOf(group)};
  }
  ASSERT_EQ(outcomes[0].size(), groups.size());
  ASSERT_EQ(outcomes[0].size(), outcomes[1].size());
  for (const auto& [group, fpEpoch] : outcomes[0])
    EXPECT_EQ(outcomes[1].at(group), fpEpoch)
        << "group " << group << ": rebalancing changed the published table";
}

// Sticky placement: under a skewed script replayed in small batches, the
// rebalancer must keep the placement within the list-scheduling bound at
// every batch boundary while re-placing rarely — LPT on every batch
// re-shuffled most groups each time.
TEST(ServiceDeltaTest, StickyPlacementStopsMigrating) {
  ScriptOptions script;
  script.groups = 200;
  script.hosts = 4000;
  script.events = 20000;
  script.seed = 23;
  script.sizeSkew = 1.0;
  const auto events = generateMembershipScript(script);

  ServiceOptions options;
  options.shards = 4;
  GroupManager manager(options);
  const std::size_t batchSize = 64;
  std::int64_t batches = 0;
  for (std::size_t at = 0; at < events.size(); at += batchSize) {
    // The rebalancer judges the placement at the batch boundary on the
    // groups that existed then, weighted by their last published sizes;
    // groups do not move inside apply(), so shardOf() after the batch is
    // the placement it let stand (or chose).
    const auto costs = currentCosts(manager);
    const auto len = std::min(batchSize, events.size() - at);
    manager.apply(std::span<const MembershipEvent>(events.data() + at, len));
    ++batches;
    ASSERT_TRUE(placementWithinListBound(manager, costs))
        << "placement breaks the list-scheduling bound at batch " << batches;
  }
  EXPECT_GT(manager.stats().migrations, 0);
  EXPECT_LE(manager.stats().rebalances * 10, batches)
      << manager.stats().rebalances << " re-placements in " << batches
      << " batches";

  // The groups that moved still publish exactly what static placement does.
  ServiceOptions fixed = options;
  fixed.rebalanceShards = false;
  GroupManager reference(fixed);
  replayScript(reference, events,
               {.batchSize = static_cast<std::int64_t>(batchSize),
                .quiesceAtEnd = false});
  EXPECT_EQ(serviceFingerprint(manager), serviceFingerprint(reference));
  for (const GroupId group : manager.createdGroups())
    EXPECT_EQ(manager.epochOf(group), reference.epochOf(group))
        << "group " << group;
}

TEST(ServiceDeltaTest, QuickAuditAgreesWithFullAndCatchesCorruption) {
  GroupManager manager(ServiceOptions{});
  manager.apply(joinBatch(0, 0, 12));
  const auto table = manager.routes(0);
  ASSERT_NE(table, nullptr);
  EXPECT_TRUE(table->checkConsistency(6, RouteTable::AuditMode::kFull).ok);
  EXPECT_TRUE(table->checkConsistency(6, RouteTable::AuditMode::kQuick).ok);

  // Flip one member id in place: the stored fingerprint cannot match the
  // recomputation any more, and BOTH audit depths must say so.
  auto* hosts = const_cast<HostId*>(table->hosts().data());
  const HostId saved = hosts[0];
  hosts[0] = saved + 1000;
  EXPECT_FALSE(table->checkConsistency(6, RouteTable::AuditMode::kFull).ok);
  EXPECT_FALSE(table->checkConsistency(6, RouteTable::AuditMode::kQuick).ok);
  hosts[0] = saved;
  EXPECT_TRUE(table->checkConsistency(6, RouteTable::AuditMode::kQuick).ok);
}

TEST(ServiceDeltaTest, SkewedScriptsRoundTripAndSkewGroupSizes) {
  ScriptOptions options;
  options.groups = 50;
  options.hosts = 400;
  options.events = 8000;
  options.seed = 3;
  options.meanGroupSize = 16.0;
  options.sizeSkew = 1.0;
  const auto events = generateMembershipScript(options);

  // Exact file-format round trip, skew or no skew.
  const std::string path = ::testing::TempDir() + "omt_script_skew_rt.txt";
  saveMembershipScript(path, events, options.dim);
  int dim = 0;
  const auto loaded = loadMembershipScript(path, &dim);
  std::remove(path.c_str());
  EXPECT_EQ(dim, options.dim);
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(loaded[i].group, events[i].group);
    EXPECT_EQ(loaded[i].kind, events[i].kind);
    EXPECT_EQ(loaded[i].host, events[i].host);
    EXPECT_DOUBLE_EQ(loaded[i].time, events[i].time);
  }

  // The head group must end up far larger than the tail group.
  std::vector<std::int64_t> live(static_cast<std::size_t>(options.groups), 0);
  for (const MembershipEvent& e : events) {
    if (e.kind == ServiceEventKind::kJoin)
      ++live[static_cast<std::size_t>(e.group)];
    else
      --live[static_cast<std::size_t>(e.group)];
  }
  EXPECT_GT(live[0], 5 * std::max<std::int64_t>(1, live[49]))
      << "sizeSkew=1.0 produced no head-vs-tail size separation";
}

}  // namespace
}  // namespace omt
