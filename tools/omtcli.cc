// omtcli — command-line front end for the omt library.
//
//   omtcli generate --n 10000 [--dim 2] [--region disk|square|clustered]
//                   [--seed 42] --out points.txt
//   omtcli build    --points points.txt [--algo polar|bisection|greedy|
//                   nearest|star|chain] [--degree 6] [--source 0]
//                   [--threads T|0] [--fast-math 0|1] [--out tree.txt]
//   omtcli metrics  --points points.txt --tree tree.txt [--degree D]
//   omtcli simulate --points points.txt --tree tree.txt
//                   [--serialization 0.01] [--overhead 0]
//                   [--order tree|nearest|farthest|deepest]
//   omtcli render   --points points.txt [--tree tree.txt] [--grid 1]
//                   [--size 800] --out figure.svg
//   omtcli chaos    [--seed 42] [--duration 10] [--arrival 10] [--degree 6]
//                   [--loss 0.3] [--heartbeat-loss 0.1] [--attempts 4]
//                   [--partition-rate 0.1] [--audit-period 0.5] [--rpc 1]
//   omtcli churn    [--events 20000] [--warmup 512] [--sweep-every 256]
//                   [--departure-fraction 0.5] [--crash-fraction 0.3]
//                   [--degree 6] [--dim 2] [--seed 1] [--min-live 64]
//                   [--snapshot out.txt]
//   omtcli dataplane --points points.txt --tree tree.txt [--packets 1000]
//                   [--interval 1e-4] [--loss 0.01] [--burst-start 0]
//                   [--burst-stop 0.25] [--burst-loss 0.5]
//                   [--control-loss 0] [--queue 128] [--retx-buffer 4096]
//                   [--crash-fraction 0] [--degree 0] [--seed 1]
//   omtcli serve    [--script trace.txt | --groups 1000 --hosts 20000
//                   --events 1000000 --dim 2 --seed 1 --mean-size 24
//                   --crash-fraction 0.3] [--save-script trace.txt]
//                   [--shards S|0] [--degree 6] [--batch 1024] [--rpc 0|1]
//                   [--disrupt 0|1] [--audit-period 0.5] [--top 5]
//
// Any command additionally accepts --trace <file> (Chrome trace_event JSON
// of the run's spans) and --metrics <file> (Prometheus text exposition);
// either flag switches the observability runtime on for the process. A flag
// the command does not read is rejected before the command runs.
//
// Every command prints a short human-readable report to stdout; failures
// (malformed files, invalid trees) exit non-zero with a message on stderr.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "omt/baselines/baselines.h"
#include "omt/fault/chaos.h"
#include "omt/fault/steady_churn.h"
#include "omt/bisection/bisection.h"
#include "omt/core/bounds.h"
#include "omt/core/polar_grid_tree.h"
#include "omt/grid/assignment.h"
#include "omt/io/serialization.h"
#include "omt/kernels/fast_math.h"
#include "omt/obs/metrics.h"
#include "omt/obs/obs.h"
#include "omt/obs/trace.h"
#include "omt/random/samplers.h"
#include "omt/report/table.h"
#include "omt/service/replay.h"
#include "omt/sim/dataplane/engine.h"
#include "omt/sim/multicast_sim.h"
#include "omt/tree/metrics.h"
#include "omt/tree/validation.h"
#include "omt/viz/svg.h"

namespace {

using namespace omt;

class Flags {
 public:
  Flags(int argc, char** argv, int firstFlag) {
    for (int i = firstFlag; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw InvalidArgument("expected --flag value pairs, got '" + key +
                              "'");
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string require(const std::string& key) const {
    const auto it = values_.find(key);
    OMT_CHECK(it != values_.end(), "missing required flag --" + key);
    return it->second;
  }
  /// Throws unless every given --key is in the space-separated `known`
  /// list (or is one of the global --trace / --metrics), so a misspelt
  /// flag fails loudly instead of silently leaving its default in place.
  void rejectUnknown(const std::string& command, std::string_view known) const {
    std::string padded(" ");
    padded.append(known).append(" trace metrics ");
    for (const auto& [key, value] : values_) {
      std::string needle(" ");
      needle.append(key).append(" ");
      if (padded.find(needle) == std::string::npos)
        throw InvalidArgument("omtcli " + command + " does not accept --" +
                              key);
    }
  }
  std::int64_t getInt(const std::string& key, std::int64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoll(it->second);
  }
  double getDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

int cmdGenerate(const Flags& flags) {
  const std::int64_t n = flags.getInt("n", 10000);
  const int dim = static_cast<int>(flags.getInt("dim", 2));
  const std::string region = flags.get("region", "disk");
  Rng rng(static_cast<std::uint64_t>(flags.getInt("seed", 42)));

  std::vector<Point> points;
  if (region == "disk") {
    points = sampleDiskWithCenterSource(rng, n, dim);
  } else if (region == "square") {
    Point lo(dim);
    Point hi(dim);
    for (int c = 0; c < dim; ++c) {
      lo[c] = -1.0;
      hi[c] = 1.0;
    }
    points = sampleRegion(rng, n, Box(lo, hi));
    points[0] = Point(dim);
  } else if (region == "clustered") {
    const Ball ball(Point(dim), 1.0);
    points = sampleClustered(rng, n, ball,
                             static_cast<int>(flags.getInt("clusters", 6)),
                             flags.getDouble("fraction", 0.7),
                             flags.getDouble("spread", 0.08));
    points[0] = Point(dim);
  } else {
    throw InvalidArgument("unknown region '" + region + "'");
  }
  savePointsFile(flags.require("out"), points);
  std::cout << "wrote " << points.size() << " " << dim
            << "-dimensional points (" << region << ") to "
            << flags.require("out") << "\n";
  return 0;
}

int cmdBuild(const Flags& flags) {
  const auto points = loadPointsFile(flags.require("points"));
  const std::string algo = flags.get("algo", "polar");
  const int degree = static_cast<int>(flags.getInt("degree", 6));
  const NodeId source = flags.getInt("source", 0);
  // 0 = auto (OMT_THREADS or hardware); the tree is identical either way.
  const int threads = static_cast<int>(flags.getInt("threads", 0));
  // Opt-in approximate kernel tier (same switch as OMT_FAST_MATH=1); the
  // tree may differ from the exact build within the tier's error bounds.
  if (flags.getInt("fast-math", 0) != 0) {
    OMT_CHECK(kernels::fast_math::compiledIn(),
              "this build compiled the fast-math tier out "
              "(-DOMT_FAST_MATH=OFF)");
    kernels::fast_math::setEnabled(true);
  }
  Rng rng(static_cast<std::uint64_t>(flags.getInt("seed", 42)));

  std::optional<MulticastTree> tree;
  double bound = 0.0;
  if (algo == "polar") {
    auto result = buildPolarGridTree(
        points, source, {.maxOutDegree = degree, .workers = threads});
    bound = result.upperBound;
    tree.emplace(std::move(result.tree));
  } else if (algo == "bisection") {
    auto result = buildBisectionTree(
        points, source, {.maxOutDegree = degree, .workers = threads});
    bound = result.pathBound;
    tree.emplace(std::move(result.tree));
  } else if (algo == "greedy") {
    tree.emplace(buildGreedyInsertionTree(points, source, degree));
  } else if (algo == "nearest") {
    tree.emplace(buildNearestParentTree(points, source, degree));
  } else if (algo == "star") {
    tree.emplace(buildStarTree(points, source));
  } else if (algo == "chain") {
    tree.emplace(buildChainTree(points, source));
  } else {
    throw InvalidArgument("unknown algorithm '" + algo + "'");
  }

  const TreeMetrics m = computeMetrics(*tree, points);
  std::cout << "algorithm:    " << algo << "\n"
            << "hosts:        " << points.size() << "\n"
            << "max delay:    " << m.maxDelay << "\n"
            << "lower bound:  " << radiusLowerBound(points, source) << "\n";
  if (bound > 0.0) std::cout << "analytic UB:  " << bound << "\n";
  std::cout << "max degree:   " << m.maxOutDegree << "\n"
            << "max depth:    " << m.maxDepth << "\n";
  if (const std::string out = flags.get("out", ""); !out.empty()) {
    saveTreeFile(out, *tree);
    std::cout << "tree written to " << out << "\n";
  }
  return 0;
}

int cmdMetrics(const Flags& flags) {
  const auto points = loadPointsFile(flags.require("points"));
  const MulticastTree tree = loadTreeFile(flags.require("tree"));
  OMT_CHECK(tree.size() == static_cast<NodeId>(points.size()),
            "tree and point set sizes differ");
  const auto cap = flags.getInt("degree", -1);
  const ValidationResult valid = validate(tree, {.maxOutDegree = cap});
  if (!valid) {
    std::cerr << "INVALID tree: " << valid.message << "\n";
    return 1;
  }
  const TreeMetrics m = computeMetrics(tree, points);
  TextTable table({"metric", "value"});
  table.addRow({"max delay (radius)", TextTable::num(m.maxDelay, 6)});
  table.addRow({"core delay", TextTable::num(m.coreDelay, 6)});
  table.addRow({"mean delay", TextTable::num(m.meanDelay, 6)});
  table.addRow({"diameter", TextTable::num(diameter(tree, points), 6)});
  table.addRow({"total link length", TextTable::num(m.totalLength, 6)});
  table.addRow({"max stretch", TextTable::num(m.maxStretch, 4)});
  table.addRow({"max depth", std::to_string(m.maxDepth)});
  table.addRow({"max out-degree", std::to_string(m.maxOutDegree)});
  std::cout << table.str();
  return 0;
}

int cmdSimulate(const Flags& flags) {
  const auto points = loadPointsFile(flags.require("points"));
  const MulticastTree tree = loadTreeFile(flags.require("tree"));
  OMT_CHECK(tree.size() == static_cast<NodeId>(points.size()),
            "tree and point set sizes differ");
  SimOptions options;
  options.serializationInterval = flags.getDouble("serialization", 0.0);
  options.perHopOverhead = flags.getDouble("overhead", 0.0);
  if (options.serializationInterval > 0.0)
    options.model = TransmissionModel::kSerialized;
  const std::string order = flags.get("order", "tree");
  if (order == "nearest") options.childOrder = ChildOrder::kNearestFirst;
  else if (order == "farthest") options.childOrder = ChildOrder::kFarthestFirst;
  else if (order == "deepest") options.childOrder = ChildOrder::kDeepestFirst;
  else OMT_CHECK(order == "tree", "unknown child order '" + order + "'");

  const SimResult sim = simulateMulticast(tree, points, options);
  std::cout << "model:          "
            << (options.model == TransmissionModel::kParallel ? "parallel"
                                                              : "serialized")
            << "\nreached:        " << sim.reached << " / " << tree.size()
            << "\nworst delivery: " << sim.maxDelivery
            << "\nmean delivery:  " << sim.meanDelivery
            << "\nmessages:       " << sim.messagesSent << "\n";
  return 0;
}

int cmdRender(const Flags& flags) {
  const auto points = loadPointsFile(flags.require("points"));
  std::optional<MulticastTree> tree;
  if (const std::string treePath = flags.get("tree", ""); !treePath.empty()) {
    tree.emplace(loadTreeFile(treePath));
    OMT_CHECK(tree->size() == static_cast<NodeId>(points.size()),
              "tree and point set sizes differ");
  }
  std::optional<PolarGrid> grid;
  if (flags.getInt("grid", 0) != 0) {
    const NodeId source = tree ? tree->root() : 0;
    const GridAssignment assignment = assignToGrid(points, source);
    grid.emplace(assignment.grid);
  }
  SvgOptions options;
  options.sizePixels = static_cast<int>(flags.getInt("size", 800));
  const std::string out = flags.require("out");
  renderSvgFile(out, points, tree ? &*tree : nullptr,
                grid ? &*grid : nullptr, options);
  std::cout << "wrote " << out << " (" << points.size() << " hosts"
            << (tree ? ", tree" : "") << (grid ? ", grid" : "") << ")\n";
  return 0;
}

int cmdChaos(const Flags& flags) {
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 42));
  ChaosOptions options;
  options.schedule.duration = flags.getDouble("duration", 10.0);
  options.schedule.arrivalRate = flags.getDouble("arrival", 10.0);
  options.schedule.crashFraction = flags.getDouble("crash-fraction", 0.4);
  options.schedule.crashBurstRate = flags.getDouble("burst-rate", 0.1);
  options.schedule.seed = deriveSeed(seed, 0x501ULL);
  options.channel.lossRate = flags.getDouble("heartbeat-loss", 0.1);
  options.channel.seed = deriveSeed(seed, 0x502ULL);
  options.session.maxOutDegree =
      static_cast<int>(flags.getInt("degree", 6));
  options.settleTime = flags.getDouble("settle", 25.0);

  options.useRpc = flags.getInt("rpc", 1) != 0;
  options.rpc.channel.lossRate = flags.getDouble("loss", 0.3);
  options.rpc.channel.maxAttempts =
      static_cast<int>(flags.getInt("attempts", 4));
  options.rpc.channel.seed = deriveSeed(seed, 0x503ULL);
  options.disruption.duration =
      options.schedule.duration + options.settleTime;
  options.disruption.partitionRate = flags.getDouble("partition-rate", 0.1);
  options.disruption.lossBurstRate = flags.getDouble("burst-loss-rate", 0.1);
  options.disruption.seed = deriveSeed(seed, 0x504ULL);
  options.auditPeriod = flags.getDouble("audit-period", 0.5);

  const ChaosResult result = runChaos(options);
  TextTable table({"metric", "value"});
  table.addRow({"joins", TextTable::count(result.joins)});
  table.addRow({"leaves", TextTable::count(result.leaves)});
  table.addRow({"crashes", TextTable::count(result.crashes)});
  table.addRow({"silent leaves", TextTable::count(result.silentLeaves)});
  table.addRow({"repairs", TextTable::count(result.repairs)});
  table.addRow({"repaired orphans", TextTable::count(result.repairedOrphans)});
  table.addRow({"sweep repairs", TextTable::count(result.sweepRepairs)});
  table.addRow({"invariant audits", TextTable::count(result.invariantChecks)});
  table.addRow({"final live hosts", TextTable::count(result.finalLive)});
  if (options.useRpc) {
    table.addRow({"rpc calls", TextTable::count(result.rpc.calls)});
    table.addRow({"rpc acked", TextTable::count(result.rpc.acked)});
    table.addRow({"rpc exhausted", TextTable::count(result.rpc.exhausted)});
    table.addRow({"duplicate deliveries",
                  TextTable::count(result.rpc.duplicateDeliveries)});
    table.addRow({"duplicates applied",
                  TextTable::count(result.rpc.duplicatesApplied)});
    table.addRow({"breaker trips", TextTable::count(result.rpc.breakerTrips)});
    table.addRow({"parked joins", TextTable::count(result.parkedJoins)});
    table.addRow({"anti-entropy sweeps",
                  TextTable::count(result.auditSweeps)});
    table.addRow({"audit reattaches",
                  TextTable::count(result.driver.auditReattaches)});
    table.addRow({"disruption windows",
                  TextTable::count(result.disruptionWindows)});
  }
  std::cout << table.str();
  if (!result.ok) {
    std::cerr << "INVARIANTS VIOLATED: " << result.failure << "\n";
    return 1;
  }
  if (options.useRpc && result.rpc.duplicatesApplied != 0) {
    std::cerr << "AT-MOST-ONCE VIOLATED: " << result.rpc.duplicatesApplied
              << " operations applied twice\n";
    return 1;
  }
  std::cout << "INVARIANTS OK: every audit passed, "
            << (options.useRpc ? "no operation applied twice, " : "")
            << "all live hosts attached\n";
  return 0;
}

int cmdChurn(const Flags& flags) {
  SteadyChurnOptions options;
  options.dim = static_cast<int>(flags.getInt("dim", 2));
  options.session.maxOutDegree = static_cast<int>(flags.getInt("degree", 6));
  options.warmupHosts = flags.getInt("warmup", 512);
  options.events = flags.getInt("events", 20000);
  options.departureFraction = flags.getDouble("departure-fraction", 0.5);
  options.crashFraction = flags.getDouble("crash-fraction", 0.3);
  options.sweepEvery = flags.getInt("sweep-every", 256);
  options.minLive = flags.getInt("min-live", 64);
  options.seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  const std::string snapshotPath = flags.get("snapshot", "");
  options.captureSnapshot = !snapshotPath.empty();

  // Quality yardstick: a fresh static build on a comparable membership.
  Rng baselineRng(deriveSeed(options.seed, 0xbabe));
  const std::vector<Point> baselinePoints = sampleDiskWithCenterSource(
      baselineRng, std::max<std::int64_t>(options.warmupHosts, 2),
      options.dim);
  options.baselineRatio =
      staticRadiusRatio(baselinePoints, 0, options.session.maxOutDegree);

  const SteadyChurnResult result = runSteadyChurn(options);

  TextTable table({"metric", "value"});
  table.addRow({"events", TextTable::count(result.events)});
  table.addRow({"joins", TextTable::count(result.joins)});
  table.addRow({"leaves", TextTable::count(result.leaves)});
  table.addRow({"crashes", TextTable::count(result.crashes)});
  table.addRow({"parked joins", TextTable::count(result.parkedJoins)});
  table.addRow({"sweeps", TextTable::count(result.sweeps)});
  table.addRow({"repaired subtrees",
                TextTable::count(result.repairedSubtrees)});
  table.addRow({"splits", TextTable::count(result.session.splits)});
  table.addRow({"merges", TextTable::count(result.session.merges)});
  table.addRow({"extends", TextTable::count(result.session.extends)});
  table.addRow({"scoped rebuilds",
                TextTable::count(result.session.scopedRebuilds)});
  table.addRow({"full regrids", TextTable::count(result.session.regrids)});
  table.addRow({"events/s", TextTable::num(result.eventsPerSecond, 0)});
  table.addRow({"R/LB mean", TextTable::num(result.radiusRatio.count() > 0
                                                ? result.radiusRatio.mean()
                                                : 0.0,
                                            3)});
  table.addRow({"R/LB max", TextTable::num(result.maxRatio, 3)});
  table.addRow(
      {"R/LB static", TextTable::num(options.baselineRatio, 3)});
  table.addRow({"watchdog alarms", TextTable::count(result.watchdog.alarms)});
  table.addRow({"final live",
                TextTable::count(result.session.joins - result.session.leaves -
                                 result.session.crashes)});
  std::cout << table.str();

  if (!snapshotPath.empty() && result.finalSnapshot) {
    const SessionSnapshot& snap = *result.finalSnapshot;
    saveSessionSnapshotFile(snapshotPath, snap.tree, snap.sessionIds,
                            snap.positions);
    std::cout << "snapshot (" << snap.sessionIds.size()
              << " hosts) written to " << snapshotPath << "\n";
  }
  if (!result.ok) {
    std::cerr << "INVARIANTS VIOLATED: " << result.firstViolation << "\n";
    return 1;
  }
  if (!result.escalationMonotone) {
    std::cerr << "ESCALATION NON-MONOTONE: a full regrid ran before a "
                 "scoped rebuild was attempted\n";
    return 1;
  }
  if (result.unrepairedOrphans != 0) {
    std::cerr << "UNREPAIRED ORPHANS: " << result.unrepairedOrphans
              << " hosts still detached after the quiesce sweep\n";
    return 1;
  }
  std::cout << "INVARIANTS OK: every sweep audit passed, escalation "
               "monotone, no orphans left behind\n";
  return 0;
}

int cmdDataplane(const Flags& flags) {
  const auto points = loadPointsFile(flags.require("points"));
  const MulticastTree tree = loadTreeFile(flags.require("tree"));
  OMT_CHECK(tree.size() == static_cast<NodeId>(points.size()),
            "tree and point set sizes differ");

  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  dataplane::DataplaneOptions options;
  options.seed = deriveSeed(seed, 0xDA7AULL);
  options.packetCount = flags.getInt("packets", 1000);
  options.packetInterval = flags.getDouble("interval", 1e-4);
  options.lossProbability = flags.getDouble("loss", 0.0);
  options.burst.burstStartProbability = flags.getDouble("burst-start", 0.0);
  options.burst.burstStopProbability = flags.getDouble("burst-stop", 0.25);
  options.burst.burstLossProbability = flags.getDouble("burst-loss", 0.5);
  options.controlLoss = flags.getDouble("control-loss", 0.0);
  options.queueCapacity = static_cast<int>(flags.getInt("queue", 128));
  options.retransmitBuffer = flags.getInt("retx-buffer", 4096);
  options.maxOutDegree = static_cast<int>(flags.getInt("degree", 0));

  // Optional crash schedule: each non-root node crashes independently with
  // probability --crash-fraction at a uniform time inside the emit window.
  const double crashFraction = flags.getDouble("crash-fraction", 0.0);
  OMT_CHECK(crashFraction >= 0.0 && crashFraction < 1.0,
            "crash fraction outside [0, 1)");
  if (crashFraction > 0.0) {
    Rng crashRng(deriveSeed(seed, 0xDA7AC));
    const double window = static_cast<double>(options.packetCount) *
                          options.packetInterval;
    for (NodeId v = 0; v < tree.size(); ++v) {
      if (v == tree.root() || crashRng.uniform() >= crashFraction) continue;
      options.crashes.push_back({v, crashRng.uniform() * window});
    }
    std::sort(options.crashes.begin(), options.crashes.end(),
              [](const dataplane::CrashEvent& a,
                 const dataplane::CrashEvent& b) { return a.time < b.time; });
  }

  const dataplane::DataplaneResult result =
      runDataplane(tree, points, options);
  const double goodput =
      result.wallSeconds > 0.0
          ? static_cast<double>(result.deliveries) / result.wallSeconds
          : 0.0;
  TextTable table({"metric", "value"});
  table.addRow({"hosts", TextTable::count(tree.size())});
  table.addRow({"packets sent", TextTable::count(result.packetsSent)});
  table.addRow({"deliveries", TextTable::count(result.deliveries)});
  table.addRow({"goodput pkt/s",
                TextTable::count(static_cast<long long>(goodput))});
  table.addRow({"p50 latency ms",
                TextTable::num(result.deliveryLatency.p50() * 1e3, 3)});
  table.addRow({"p99 latency ms",
                TextTable::num(result.deliveryLatency.p99() * 1e3, 3)});
  table.addRow({"link losses", TextTable::count(result.linkLosses)});
  table.addRow({"queue drops", TextTable::count(result.queueDrops)});
  table.addRow({"dups suppressed",
                TextTable::count(result.duplicatesSuppressed)});
  table.addRow({"NACKs sent", TextTable::count(result.nacksSent)});
  table.addRow({"retransmits", TextTable::count(result.retransmits)});
  table.addRow({"eviction misses", TextTable::count(result.evictionMisses)});
  table.addRow({"refetches", TextTable::count(result.refetches)});
  table.addRow({"crashed nodes", TextTable::count(result.crashedNodes)});
  table.addRow({"re-homed children",
                TextTable::count(result.rehomedChildren)});
  table.addRow({"events processed",
                TextTable::count(result.eventsProcessed)});
  table.addRow({"sim end time s", TextTable::num(result.simEndTime, 3)});
  std::cout << table.str();
  if (!result.completed) {
    std::cerr << "INCOMPLETE: " << result.undelivered
              << " packets undelivered at live receivers"
              << (result.stalled ? " (stall detector fired)" : "") << "\n";
    return 1;
  }
  std::cout << "DELIVERY OK: every live receiver got every packet "
               "exactly once, in order\n";
  return 0;
}

int cmdServe(const Flags& flags) {
  // Obtain the membership script: replay a saved trace or generate one.
  std::vector<MembershipEvent> events;
  int dim = static_cast<int>(flags.getInt("dim", 2));
  const std::string scriptPath = flags.get("script", "");
  if (!scriptPath.empty()) {
    events = loadMembershipScript(scriptPath, &dim);
  } else {
    ScriptOptions script;
    script.groups = flags.getInt("groups", 1000);
    script.hosts = flags.getInt("hosts", 20000);
    script.events = flags.getInt("events", 1000000);
    script.dim = dim;
    script.seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
    script.meanGroupSize = flags.getDouble("mean-size", 24.0);
    script.sizeSkew = flags.getDouble("skew", 0.0);
    script.crashFraction = flags.getDouble("crash-fraction", 0.3);
    script.meanEventGap = flags.getDouble("event-gap", 1e-3);
    events = generateMembershipScript(script);
  }
  const std::string savePath = flags.get("save-script", "");
  if (!savePath.empty()) {
    saveMembershipScript(savePath, events, dim);
    std::cout << "script (" << events.size() << " events) written to "
              << savePath << "\n";
  }

  ServiceOptions service;
  service.session.maxOutDegree = static_cast<int>(flags.getInt("degree", 6));
  service.shards = static_cast<int>(flags.getInt("shards", 0));
  service.seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  service.useRpc = flags.getInt("rpc", 0) != 0;
  service.injectDisruption = flags.getInt("disrupt", 0) != 0;
  service.auditPeriod = flags.getDouble("audit-period", 0.5);
  service.measureLatency = flags.getInt("latency", 0) != 0;
  service.deltaPublish = flags.getInt("delta", 1) != 0;
  service.deltaVerify = flags.getInt("delta-verify", 0) != 0;
  service.rebalanceShards = flags.getInt("rebalance", 1) != 0;
  GroupManager manager(service);

  ReplayOptions replay;
  replay.batchSize = flags.getInt("batch", 1024);
  replay.quiesceRounds = static_cast<int>(flags.getInt("quiesce-rounds", 32));
  const ReplayResult result = replayScript(manager, events, replay);

  // Per-group convergence distribution over every created group.
  std::int64_t minEvents = std::numeric_limits<std::int64_t>::max();
  std::int64_t maxEvents = 0;
  std::int64_t maxMembers = 0;
  std::int64_t totalMembers = 0;
  std::vector<std::pair<std::int64_t, GroupId>> busiest;
  for (const GroupId group : manager.createdGroups()) {
    const GroupStats gs = manager.groupStats(group);
    minEvents = std::min(minEvents, gs.events);
    maxEvents = std::max(maxEvents, gs.events);
    const std::int64_t live = manager.liveMembersOf(group);
    maxMembers = std::max(maxMembers, live);
    totalMembers += live;
    busiest.emplace_back(gs.events, group);
  }
  if (manager.groupCount() == 0) minEvents = 0;
  const double rate = result.applySeconds > 0.0
                          ? static_cast<double>(result.events) /
                                result.applySeconds
                          : 0.0;

  TextTable table({"metric", "value"});
  table.addRow({"events", TextTable::count(result.events)});
  table.addRow({"batches", TextTable::count(result.batches)});
  table.addRow({"groups", TextTable::count(result.groups)});
  table.addRow({"live groups", TextTable::count(result.liveGroups)});
  table.addRow({"live members", TextTable::count(totalMembers)});
  table.addRow({"publishes", TextTable::count(result.publishes)});
  table.addRow({"delta publishes",
                TextTable::count(manager.stats().deltaPublishes)});
  table.addRow({"shards", TextTable::count(manager.shards())});
  table.addRow({"events/s", TextTable::count(
                    static_cast<long long>(rate))});
  table.addRow({"events/group min", TextTable::count(minEvents)});
  table.addRow({"events/group max", TextTable::count(maxEvents)});
  table.addRow({"members/group max", TextTable::count(maxMembers)});
  table.addRow({"parked joins", TextTable::count(
                    manager.stats().parkedJoins)});
  table.addRow({"audits", TextTable::count(manager.stats().audits)});
  table.addRow({"teardowns", TextTable::count(manager.stats().teardowns)});
  table.addRow({"degraded groups", TextTable::count(result.degradedGroups)});
  table.addRow({"inconsistent", TextTable::count(result.inconsistentGroups)});
  std::cout << table.str();

  const auto top = std::min<std::size_t>(
      static_cast<std::size_t>(flags.getInt("top", 5)), busiest.size());
  if (top > 0) {
    std::partial_sort(busiest.begin(), busiest.begin() + static_cast<std::ptrdiff_t>(top),
                      busiest.end(), std::greater<>());
    TextTable groups({"group", "events", "members", "epoch", "fingerprint"});
    for (std::size_t i = 0; i < top; ++i) {
      const GroupId g = busiest[i].second;
      std::ostringstream fp;
      fp << std::hex << manager.groupStats(g).lastFingerprint;
      groups.addRow({TextTable::count(g), TextTable::count(busiest[i].first),
                     TextTable::count(manager.liveMembersOf(g)),
                     TextTable::count(
                         static_cast<long long>(manager.epochOf(g))),
                     fp.str()});
    }
    std::cout << "busiest groups:\n" << groups.str();
  }
  std::ostringstream fp;
  fp << std::hex << serviceFingerprint(manager);
  std::cout << "service fingerprint: " << fp.str() << "\n";

  if (!result.converged()) {
    std::cerr << "NOT CONVERGED: " << result.degradedGroups
              << " degraded, " << result.inconsistentGroups
              << " inconsistent group(s)";
    if (!result.firstInconsistency.empty())
      std::cerr << " (" << result.firstInconsistency << ")";
    std::cerr << "\n";
    return 1;
  }
  std::cout << "CONVERGED: every group fully attached, every route table "
               "consistent\n";
  return 0;
}

/// A subcommand and every --key it reads, space-separated.
struct Command {
  std::string_view name;
  int (*run)(const Flags&);
  std::string_view flags;
};

constexpr Command kCommands[] = {
    {"generate", cmdGenerate, "n dim region seed clusters fraction spread out"},
    {"build", cmdBuild, "points algo degree source threads fast-math seed out"},
    {"metrics", cmdMetrics, "points tree degree"},
    {"simulate", cmdSimulate, "points tree serialization overhead order"},
    {"render", cmdRender, "points tree grid size out"},
    {"chaos", cmdChaos,
     "seed duration arrival crash-fraction burst-rate heartbeat-loss degree "
     "settle rpc loss attempts partition-rate burst-loss-rate audit-period"},
    {"churn", cmdChurn,
     "dim degree warmup events departure-fraction crash-fraction "
     "sweep-every min-live seed snapshot"},
    {"dataplane", cmdDataplane,
     "points tree seed packets interval loss burst-start burst-stop "
     "burst-loss control-loss queue retx-buffer degree crash-fraction"},
    {"serve", cmdServe,
     "script dim groups hosts events seed mean-size skew crash-fraction "
     "event-gap save-script degree shards rpc disrupt audit-period latency "
     "delta delta-verify rebalance batch quiesce-rounds top"},
};

int run(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: omtcli <generate|build|metrics|simulate|render|"
                 "chaos|churn|dataplane|serve> --flag value ...\n";
    return 2;
  }
  const std::string command = argv[1];
  const auto* entry =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const Command& c) { return c.name == command; });
  if (entry == std::end(kCommands)) {
    std::cerr << "unknown command '" << command << "'\n";
    return 2;
  }
  const Flags flags(argc, argv, 2);
  flags.rejectUnknown(command, entry->flags);

  const std::string tracePath = flags.get("trace", "");
  const std::string metricsPath = flags.get("metrics", "");
  if (!tracePath.empty() || !metricsPath.empty()) {
    OMT_CHECK(obs::compiledIn(),
              "--trace/--metrics need a build with OMT_OBS=ON");
    obs::setEnabled(true);
  }

  const int rc = entry->run(flags);

  if (!tracePath.empty()) {
    obs::TraceRecorder::global().writeChromeTraceFile(tracePath);
    std::cout << "trace written to " << tracePath << " ("
              << obs::TraceRecorder::global().eventCount() << " spans)\n";
  }
  if (!metricsPath.empty()) {
    std::ofstream out(metricsPath);
    OMT_CHECK(out.good(), "cannot open metrics file '" + metricsPath + "'");
    out << obs::MetricsRegistry::global().prometheusText();
    std::cout << "metrics written to " << metricsPath << "\n";
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
