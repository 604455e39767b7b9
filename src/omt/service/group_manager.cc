#include "omt/service/group_manager.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "omt/common/error.h"
#include "omt/obs/metrics.h"
#include "omt/parallel/parallel_for.h"
#include "omt/random/rng.h"
#include "omt/rpc/reliable_session.h"

namespace omt {

namespace {

constexpr std::int64_t kPageBits = 10;
constexpr std::int64_t kPageSize = std::int64_t{1} << kPageBits;

/// Per-logical-event counters are deterministic; the latency histogram is
/// wall clock and is registered accordingly.
struct ServiceMetrics {
  obs::Counter& events;
  obs::Counter& joins;
  obs::Counter& leaves;
  obs::Counter& crashes;
  obs::Counter& publishes;
  obs::Counter& deltaPublishes;
  obs::Counter& teardowns;
  obs::Counter& audits;
  obs::Gauge& groups;
  obs::Histogram& eventToRoute;
  // Shard load/steal metrics. The shard count resolves from the
  // environment (OMT_THREADS / --shards), so everything here is
  // placement-dependent and registered nondeterministic — unlike the
  // per-event counters above, which are invariant to it.
  obs::Counter& shardRebalances;
  obs::Counter& shardMigrations;
  obs::Gauge& shardLoadMax;
  obs::Gauge& shardLoadMin;
};

ServiceMetrics& serviceMetrics() {
  auto& registry = obs::MetricsRegistry::global();
  static ServiceMetrics metrics{
      registry.counter("omt_service_events_total"),
      registry.counter("omt_service_joins_total"),
      registry.counter("omt_service_leaves_total"),
      registry.counter("omt_service_crashes_total"),
      registry.counter("omt_service_publishes_total"),
      registry.counter("omt_service_delta_publishes_total"),
      registry.counter("omt_service_teardowns_total"),
      registry.counter("omt_service_audits_total"),
      registry.gauge("omt_service_groups"),
      registry.histogram("omt_service_event_to_route_seconds", {},
                         obs::Determinism::kNondeterministic),
      registry.counter("omt_service_shard_rebalances_total",
                       obs::Determinism::kNondeterministic),
      registry.counter("omt_service_shard_migrations_total",
                       obs::Determinism::kNondeterministic),
      registry.gauge("omt_service_shard_load_max",
                     obs::Determinism::kNondeterministic),
      registry.gauge("omt_service_shard_load_min",
                     obs::Determinism::kNondeterministic)};
  return metrics;
}

double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One batched add per counter per shard pass instead of an atomic RMW
/// per event — the global registry counters are far too hot to touch
/// from the per-event path.
void flushStatsMetrics(const ServiceStats& s) {
  auto& m = serviceMetrics();
  if (s.events) m.events.add(s.events);
  if (s.joins) m.joins.add(s.joins);
  if (s.leaves) m.leaves.add(s.leaves);
  if (s.crashes) m.crashes.add(s.crashes);
  if (s.publishes) m.publishes.add(s.publishes);
  if (s.deltaPublishes) m.deltaPublishes.add(s.deltaPublishes);
  if (s.teardowns) m.teardowns.add(s.teardowns);
  if (s.audits) m.audits.add(s.audits);
}

}  // namespace

/// Builder-side state of one live group; owned by the group's shard.
struct GroupManager::GroupState {
  explicit GroupState(const Point& origin, const SessionOptions& options)
      : session(origin, options) {
    hostOf.push_back(kNoHost);  // session id 0 = the virtual root
  }

  OverlaySession session;
  std::vector<HostId> hostOf;  ///< session id -> service host id
  HostIndex nodeOf;            ///< current members (host -> session node)
  // RPC transport (ServiceOptions::useRpc); unique_ptrs keep the session
  // reference stable if the state object moves.
  std::unique_ptr<RpcLayer> rpc;
  std::unique_ptr<ReliableSessionDriver> driver;
  double lastAudit = 0.0;
  double lastEventTime = 0.0;
};

/// Atomic snapshot pointer with explicit acquire/release on both the load
/// and store paths. libstdc++ 12's std::atomic<std::shared_ptr> unlocks
/// its internal lock bit with a *relaxed* RMW after a load, so the plain
/// pointer word it guards has no release edge to the next publisher's
/// write — a formal data race that ThreadSanitizer reports on the
/// publish/routes pair. This guard runs the same pointer-swap protocol
/// with correct ordering: a reader spins only for the handful of
/// instructions a concurrent swap or refcount bump holds the flag, and a
/// retired table is released outside the critical section so readers
/// holding an old epoch keep it alive by refcount.
class GroupManager::SnapshotPtr {
 public:
  std::shared_ptr<const RouteTable> load() const {
    lock();
    std::shared_ptr<const RouteTable> copy = ptr_;
    unlock();
    return copy;
  }

  /// Swap in `next` and hand the retired table back to the caller (who
  /// releases or recycles it off the lock).
  [[nodiscard]] std::shared_ptr<const RouteTable> store(
      std::shared_ptr<const RouteTable> next) {
    lock();
    ptr_.swap(next);
    unlock();
    return next;
  }

 private:
  void lock() const {
    while (busy_.exchange(1, std::memory_order_acquire) != 0)
      std::this_thread::yield();
  }
  void unlock() const { busy_.store(0, std::memory_order_release); }

  mutable std::atomic<unsigned> busy_{0};
  std::shared_ptr<const RouteTable> ptr_;
};

/// One group's reader/builder rendezvous. The snapshot table pointer is
/// the ONLY field readers touch; everything else belongs to the owning
/// shard.
struct GroupManager::GroupSlot {
  SnapshotPtr table;
  std::unique_ptr<GroupState> state;  ///< null until created / after teardown
  std::uint64_t epoch = 0;  ///< survives teardown: epochs stay monotone
  GroupStats stats;
  /// Builder-side copy of the current snapshot: the delta path's patch
  /// base, read without touching the SnapshotPtr spin flag.
  std::shared_ptr<const RouteTable> lastTable;
  /// The epoch retired by the last publish, offered to the next build for
  /// in-place reuse (slab + control block) once every reader has dropped
  /// it — the last allocation on the steady-state publish path.
  std::shared_ptr<const RouteTable> spare;
  std::int64_t cost = 1;  ///< rebalance weight: last published size + 1
  double publishStamp = 0.0;  ///< wall clock of last publish (measureLatency)
  int shard = 0;          ///< owning shard (writer thread re-assigns)
  bool created = false;
  bool dirty = false;  ///< touched since last publish (owning shard only)
  /// The session's change journal restarted (state freshly created), so
  /// the next publish cannot trust a delta against lastTable.
  bool needsFullPublish = true;
};

/// Deterministic per-shard accumulator, merged in shard order.
struct GroupManager::ShardReport {
  ServiceStats stats;
  std::int64_t load = 0;  ///< work units this pass (events + published hosts)
  std::int64_t degraded = 0;  ///< groups quiesce() left degraded
};

GroupManager::GroupManager(const ServiceOptions& options)
    : options_(options), shards_(resolveWorkers(options.shards)) {
  OMT_CHECK(options_.maxGroups >= 1, "need a positive group-id space");
  OMT_CHECK(options_.auditPeriod > 0.0, "audit period must be positive");
  OMT_CHECK(options_.deltaMaxFraction >= 0.0,
            "delta fraction must be non-negative");
  shardLoad_.assign(static_cast<std::size_t>(shards_), 0);
  reportScratch_.resize(static_cast<std::size_t>(shards_));
  eventScratch_.resize(static_cast<std::size_t>(shards_));
  groupScratch_.resize(static_cast<std::size_t>(shards_));
  pageCount_ = (options_.maxGroups + kPageSize - 1) / kPageSize;
  pages_ = std::make_unique<std::atomic<GroupSlot*>[]>(
      static_cast<std::size_t>(pageCount_));
  for (std::int64_t p = 0; p < pageCount_; ++p)
    pages_[static_cast<std::size_t>(p)].store(nullptr,
                                              std::memory_order_relaxed);
}

GroupManager::~GroupManager() {
  for (std::int64_t p = 0; p < pageCount_; ++p)
    delete[] pages_[static_cast<std::size_t>(p)].load(
        std::memory_order_acquire);
}

GroupManager::GroupSlot* GroupManager::slotFor(GroupId group) const {
  if (group < 0 || group >= options_.maxGroups) return nullptr;
  GroupSlot* page = pages_[static_cast<std::size_t>(group >> kPageBits)].load(
      std::memory_order_acquire);
  if (!page) return nullptr;
  return &page[group & (kPageSize - 1)];
}

GroupManager::GroupSlot& GroupManager::ensureSlot(GroupId group) {
  OMT_CHECK(group >= 0 && group < options_.maxGroups,
            "group id " + std::to_string(group) + " outside [0, " +
                std::to_string(options_.maxGroups) + ")");
  auto& pageRef = pages_[static_cast<std::size_t>(group >> kPageBits)];
  GroupSlot* page = pageRef.load(std::memory_order_acquire);
  if (!page) {
    page = new GroupSlot[kPageSize];
    pageRef.store(page, std::memory_order_release);
  }
  GroupSlot& slot = page[group & (kPageSize - 1)];
  if (!slot.created) {
    slot.created = true;
    slot.shard = static_cast<int>(group % shards_);
    createdGroups_.push_back(group);
  }
  return slot;
}

void GroupManager::createState(GroupSlot& slot, GroupId group, int dim) {
  OMT_CHECK(dim >= 1, "cannot create a group from a dimensionless event");
  // The session's source is a virtual rendezvous root at the origin of the
  // population's coordinate space — never a real host, so the last real
  // member can always leave and single-host groups are unremarkable.
  slot.state = std::make_unique<GroupState>(Point(dim), options_.session);
  slot.state->session.enableChangeJournal();
  // The fresh journal knows nothing about lastTable's epoch; the first
  // publish of this incarnation must rebuild from the session.
  slot.needsFullPublish = true;
  if (options_.useRpc) {
    RpcOptions rpcOptions = options_.rpc;
    rpcOptions.channel.seed =
        deriveSeed(deriveSeed(options_.seed, 0x5e17ULL),
                   static_cast<std::uint64_t>(group));
    DisruptionSchedule disruption;
    if (options_.injectDisruption) {
      DisruptionOptions d = options_.disruption;
      d.seed = deriveSeed(deriveSeed(options_.seed, 0xd15eULL),
                          static_cast<std::uint64_t>(group));
      disruption = DisruptionSchedule(generateDisruption(d));
    }
    OverlaySession* session = &slot.state->session;
    slot.state->rpc = std::make_unique<RpcLayer>(
        rpcOptions, std::move(disruption),
        [session](std::int64_t id) -> const Point* {
          if (id < 0 || id >= session->hostCount() || !session->isLive(id))
            return nullptr;
          return &session->positionOf(id);
        });
    slot.state->driver = std::make_unique<ReliableSessionDriver>(
        *session, *slot.state->rpc);
  }
}

void GroupManager::applyEvent(GroupSlot& slot, const MembershipEvent& event,
                              ShardReport& report) {
  if (!slot.state) {
    OMT_CHECK(event.kind == ServiceEventKind::kJoin,
              "group " + std::to_string(event.group) +
                  ": departure event for a group with no members");
    createState(slot, event.group, event.position.dim());
  }
  GroupState& state = *slot.state;
  state.lastEventTime = event.time;
  slot.dirty = true;
  ++slot.stats.events;
  ++report.stats.events;
  ++report.load;

  switch (event.kind) {
    case ServiceEventKind::kJoin: {
      OMT_CHECK(!state.nodeOf.contains(event.host),
                "group " + std::to_string(event.group) + ": host " +
                    std::to_string(event.host) + " is already a member");
      NodeId id;
      if (options_.useRpc) {
        const auto drive = state.driver->driveJoin(event.position, event.time);
        id = drive.id;
        if (!drive.result.completed && !drive.result.applied)
          ++report.stats.parkedJoins;
      } else {
        id = state.session.join(event.position);
      }
      OMT_CHECK(id == static_cast<NodeId>(state.hostOf.size()),
                "session id space diverged from the host map");
      state.hostOf.push_back(event.host);
      state.nodeOf.insert(event.host, id);
      ++slot.stats.joins;
      ++report.stats.joins;
      break;
    }
    case ServiceEventKind::kLeave: {
      const NodeId node = state.nodeOf.find(event.host);
      OMT_CHECK(node != kNoNode,
                "group " + std::to_string(event.group) + ": host " +
                    std::to_string(event.host) + " left without being a member");
      if (options_.useRpc && !state.session.isParked(node)) {
        state.driver->driveLeave(node, event.time);
      } else {
        // A parked host is unattached — its goodbye needs no handshake.
        state.session.leave(node);
      }
      state.nodeOf.erase(event.host);
      ++slot.stats.leaves;
      ++report.stats.leaves;
      break;
    }
    case ServiceEventKind::kCrash: {
      const NodeId node = state.nodeOf.find(event.host);
      OMT_CHECK(node != kNoNode,
                "group " + std::to_string(event.group) + ": host " +
                    std::to_string(event.host) + " crashed without being a member");
      const NodeId parent = state.session.parentOf(node);
      state.session.crash(node);
      if (options_.useRpc) {
        const NodeId reporter =
            parent >= 1 && state.session.isLive(parent) ? parent : kNoNode;
        state.driver->driveRepair(node, reporter, event.time);
      } else {
        state.session.repairCrashed(node);
      }
      state.nodeOf.erase(event.host);
      ++slot.stats.crashes;
      ++report.stats.crashes;
      break;
    }
  }

  // Anti-entropy cadence rides on event time (deterministic).
  if (options_.useRpc && state.driver->reconcilePending() &&
      event.time >= state.lastAudit + options_.auditPeriod) {
    state.driver->runAudit(event.time);
    state.lastAudit = event.time;
    ++report.stats.audits;
  }
  maybeTearDown(slot, report);
}

void GroupManager::maybeTearDown(GroupSlot& slot, ShardReport& report) {
  GroupState* state = slot.state.get();
  if (!state || !state->nodeOf.empty()) return;
  // Only a fully clean group tears down: nothing parked, no unrepaired
  // corpse, no outstanding RPC ledger entry. A degraded empty group keeps
  // its state until quiesce()/audits drain it.
  if (state->session.parkedCount() != 0 ||
      state->session.undetectedCrashes() != 0)
    return;
  if (state->driver && state->driver->reconcilePending()) return;
  slot.state.reset();
  slot.dirty = true;
  ++slot.stats.teardowns;
  ++report.stats.teardowns;
}

void GroupManager::publish(GroupSlot& slot, GroupId group,
                           ShardReport& report) {
  std::shared_ptr<const RouteTable> table;
  bool viaDelta = false;
  if (slot.state) {
    GroupState& state = *slot.state;
    OverlaySession& session = state.session;
    if (options_.deltaPublish && slot.lastTable && !slot.needsFullPublish &&
        !session.changeOverflow()) {
      const auto dirty = session.changedNodes();
      const auto maxEdits = static_cast<std::int64_t>(
          options_.deltaMaxFraction *
          static_cast<double>(slot.lastTable->size()));
      if (static_cast<std::int64_t>(dirty.size()) <= maxEdits) {
        auto patched = RouteTable::buildDelta(
            *slot.lastTable, session, state.hostOf, state.nodeOf, dirty,
            slot.epoch + 1, maxEdits, std::move(slot.spare));
        if (patched) {
          viaDelta = true;
          ++slot.epoch;
          if (options_.deltaVerify) {
            const auto full =
                RouteTable::build(session, state.hostOf, group, slot.epoch);
            OMT_CHECK(patched->identicalTo(*full),
                      "group " + std::to_string(group) +
                          ": delta-published table diverged from the full "
                          "rebuild");
          }
          table = std::move(patched);
        }
      }
    }
    if (!table)
      table = RouteTable::build(session, state.hostOf, group, ++slot.epoch,
                                std::move(slot.spare));
    session.clearChanges();
    slot.needsFullPublish = false;
  } else {
    table = std::make_shared<const RouteTable>(group, ++slot.epoch);
  }
  slot.cost = table->size() + 1;
  report.load += slot.cost;
  slot.stats.lastFingerprint = table->fingerprint();
  ++slot.stats.publishes;
  if (viaDelta) {
    ++slot.stats.deltaPublishes;
    ++report.stats.deltaPublishes;
  }
  slot.lastTable = table;
  // The swap retires the table published two epochs ago: lastTable held the
  // only builder-side reference until the line above replaced it, so after
  // the swap our `spare` reference is the only one left outside readers.
  slot.spare = slot.table.store(std::move(table));
  slot.dirty = false;
  ++report.stats.publishes;
  if (options_.measureLatency) slot.publishStamp = wallNow();
}

void GroupManager::rebalance() {
  if (!options_.rebalanceShards || shards_ <= 1 || createdGroups_.empty())
    return;
  // Sticky placement: keep every group where it is while the current
  // placement meets Graham's list-scheduling bound
  //   maxShardLoad <= total / shards + heaviestGroupCost,
  // checked in O(groups) with no sort. Every greedy LPT result meets the
  // bound for the costs it was computed from, so a re-placement can never
  // immediately trigger another; only cost drift since then can.
  loadScratch_.assign(static_cast<std::size_t>(shards_), 0);
  std::int64_t total = 0;
  std::int64_t heaviest = 0;
  for (const GroupId group : createdGroups_) {
    const GroupSlot& slot = *slotFor(group);
    loadScratch_[static_cast<std::size_t>(slot.shard)] += slot.cost;
    total += slot.cost;
    heaviest = std::max(heaviest, slot.cost);
  }
  const std::int64_t maxLoad =
      *std::max_element(loadScratch_.begin(), loadScratch_.end());
  if (maxLoad * shards_ <= total + heaviest * shards_) return;

  // Deterministic LPT from published sizes: heaviest groups first (ties by
  // ascending group id) onto the least-loaded shard so far (ties by lowest
  // shard). Group outcomes are placement-invariant — the differential
  // oracle's guarantee — so moving ownership is free of correctness risk.
  costScratch_.clear();
  for (const GroupId group : createdGroups_)
    costScratch_.emplace_back(slotFor(group)->cost, group);
  std::sort(costScratch_.begin(), costScratch_.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  loadScratch_.assign(static_cast<std::size_t>(shards_), 0);
  std::int64_t migrations = 0;
  for (const auto& [cost, group] : costScratch_) {
    int target = 0;
    for (int s = 1; s < shards_; ++s) {
      if (loadScratch_[static_cast<std::size_t>(s)] <
          loadScratch_[static_cast<std::size_t>(target)])
        target = s;
    }
    loadScratch_[static_cast<std::size_t>(target)] += cost;
    GroupSlot& slot = *slotFor(group);
    if (slot.shard != target) {
      slot.shard = target;
      ++migrations;
    }
  }
  ++stats_.rebalances;
  stats_.migrations += migrations;
  serviceMetrics().shardRebalances.add();
  serviceMetrics().shardMigrations.add(migrations);
}

void GroupManager::accumulateShardLoads(
    std::span<const ShardReport> reports) {
  for (std::size_t s = 0; s < reports.size(); ++s)
    shardLoad_[s] += reports[s].load;
  std::int64_t lo = shardLoad_.empty() ? 0 : shardLoad_[0];
  std::int64_t hi = lo;
  for (const std::int64_t load : shardLoad_) {
    lo = std::min(lo, load);
    hi = std::max(hi, load);
  }
  serviceMetrics().shardLoadMax.set(static_cast<double>(hi));
  serviceMetrics().shardLoadMin.set(static_cast<double>(lo));
}

int GroupManager::shardOf(GroupId group) const {
  const GroupSlot* slot = slotFor(group);
  return slot && slot->created ? slot->shard : -1;
}

ApplyReport GroupManager::apply(std::span<const MembershipEvent> events) {
  const double arrival = options_.measureLatency ? wallNow() : 0.0;
  // Batch boundary: re-balance ownership from last batch's published
  // sizes, then partition. Doing both on the writer thread keeps the
  // parallel phase free of any structural mutation a concurrent reader
  // could race with (slot/page creation happens here too).
  rebalance();
  std::vector<std::vector<std::int64_t>>& perShard = eventScratch_;
  std::vector<ShardReport>& reports = reportScratch_;
  std::fill(reports.begin(), reports.end(), ShardReport{});
  for (auto& shard : perShard) shard.clear();
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(events.size()); ++i) {
    const GroupSlot& slot = ensureSlot(events[static_cast<std::size_t>(i)].group);
    perShard[static_cast<std::size_t>(slot.shard)].push_back(i);
  }

  // groupScratch_ doubles as the per-shard touched list here; apply() and
  // quiesce() never overlap (single writer), so the reuse is safe.
  std::vector<std::vector<GroupId>>& touched = groupScratch_;
  for (auto& shard : touched) shard.clear();
  parallelFor(0, shards_, shards_, [&](std::int64_t shard) {
    ShardReport& report = reports[static_cast<std::size_t>(shard)];
    std::vector<GroupId>& mine = touched[static_cast<std::size_t>(shard)];
    for (const std::int64_t i : perShard[static_cast<std::size_t>(shard)]) {
      const MembershipEvent& event = events[static_cast<std::size_t>(i)];
      GroupSlot& slot = *slotFor(event.group);
      if (!slot.dirty) mine.push_back(event.group);
      applyEvent(slot, event, report);
    }
    for (const GroupId group : mine) {
      GroupSlot& slot = *slotFor(group);
      if (slot.dirty) publish(slot, group, report);
    }
  });

  ApplyReport result;
  result.events = static_cast<std::int64_t>(events.size());
  for (const ShardReport& report : reports) {
    stats_.events += report.stats.events;
    stats_.joins += report.stats.joins;
    stats_.leaves += report.stats.leaves;
    stats_.crashes += report.stats.crashes;
    stats_.publishes += report.stats.publishes;
    stats_.deltaPublishes += report.stats.deltaPublishes;
    stats_.teardowns += report.stats.teardowns;
    stats_.audits += report.stats.audits;
    stats_.parkedJoins += report.stats.parkedJoins;
    result.groupsTouched += report.stats.publishes;
    result.publishes += report.stats.publishes;
    result.deltaPublishes += report.stats.deltaPublishes;
    flushStatsMetrics(report.stats);
  }
  accumulateShardLoads(reports);
  stats_.groupsCreated = static_cast<std::int64_t>(createdGroups_.size());
  serviceMetrics().groups.set(static_cast<double>(liveGroupCount()));
  if (options_.measureLatency) {
    // Every event's group publishes by the end of its batch, so the
    // latency is just that slot's stamp minus batch ingress — no
    // per-batch map, no per-event hash lookup.
    result.eventLatencies.reserve(events.size());
    auto& histogram = serviceMetrics().eventToRoute;
    for (const MembershipEvent& event : events) {
      const GroupSlot* slot = slotFor(event.group);
      const double latency =
          slot && slot->publishStamp > 0.0 ? slot->publishStamp - arrival : 0.0;
      result.eventLatencies.push_back(latency);
      histogram.observe(latency);
    }
  }
  return result;
}

bool GroupManager::quiesceGroup(GroupSlot& slot, GroupId group, double now,
                                int maxRounds, ShardReport& report) {
  GroupState* state = slot.state.get();
  if (!state) return true;
  auto degraded = [&]() {
    return state->session.undetectedCrashes() != 0 ||
           state->session.parkedCount() != 0 ||
           (state->driver && state->driver->reconcilePending());
  };
  double t = std::max(now, state->lastEventTime);
  for (int round = 0; round < maxRounds && degraded(); ++round) {
    t += options_.auditPeriod;
    if (state->driver && state->driver->reconcilePending()) {
      state->driver->runAudit(t);
      ++report.stats.audits;
    }
    if (state->session.undetectedCrashes() != 0)
      state->session.detectAndRepair();
    slot.dirty = true;
  }
  maybeTearDown(slot, report);
  if (slot.dirty) publish(slot, group, report);
  return slot.state == nullptr || !degraded();
}

std::int64_t GroupManager::quiesce(double now, int maxRounds) {
  rebalance();
  std::vector<std::vector<GroupId>>& perShard = groupScratch_;
  for (auto& shard : perShard) shard.clear();
  for (const GroupId group : createdGroups_)
    perShard[static_cast<std::size_t>(slotFor(group)->shard)].push_back(group);
  std::vector<ShardReport>& reports = reportScratch_;
  std::fill(reports.begin(), reports.end(), ShardReport{});
  parallelFor(0, shards_, shards_, [&](std::int64_t shard) {
    ShardReport& report = reports[static_cast<std::size_t>(shard)];
    for (const GroupId group : perShard[static_cast<std::size_t>(shard)]) {
      GroupSlot& slot = *slotFor(group);
      if (!quiesceGroup(slot, group, now, maxRounds, report))
        ++report.degraded;
    }
  });
  std::int64_t degraded = 0;
  for (const ShardReport& report : reports) {
    stats_.publishes += report.stats.publishes;
    stats_.deltaPublishes += report.stats.deltaPublishes;
    stats_.teardowns += report.stats.teardowns;
    stats_.audits += report.stats.audits;
    degraded += report.degraded;
    flushStatsMetrics(report.stats);
  }
  accumulateShardLoads(reports);
  serviceMetrics().groups.set(static_cast<double>(liveGroupCount()));
  return degraded;
}

std::shared_ptr<const RouteTable> GroupManager::routes(GroupId group) const {
  const GroupSlot* slot = slotFor(group);
  if (!slot) return nullptr;
  return slot->table.load();
}

HostId GroupManager::parentOf(GroupId group, HostId host) const {
  const auto table = routes(group);
  return table ? table->parentOf(host) : kNotMember;
}

std::vector<HostId> GroupManager::childrenOf(GroupId group,
                                             HostId host) const {
  const auto table = routes(group);
  if (!table) return {};
  const auto span = table->childrenOf(host);
  return {span.begin(), span.end()};
}

std::uint64_t GroupManager::epochOf(GroupId group) const {
  const auto table = routes(group);
  return table ? table->epoch() : 0;
}

std::int64_t GroupManager::liveGroupCount() const {
  std::int64_t live = 0;
  for (const GroupId group : createdGroups_)
    if (slotFor(group)->state) ++live;
  return live;
}

std::int64_t GroupManager::liveMembersOf(GroupId group) const {
  const GroupSlot* slot = slotFor(group);
  if (!slot || !slot->state) return 0;
  return static_cast<std::int64_t>(slot->state->nodeOf.size());
}

GroupStats GroupManager::groupStats(GroupId group) const {
  const GroupSlot* slot = slotFor(group);
  return slot ? slot->stats : GroupStats{};
}

}  // namespace omt
