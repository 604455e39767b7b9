// Extension bench: the online session (decentralised join/leave — the
// paper's future work) versus the offline Algorithm Polar_Grid on the same
// membership. Shape to check: the online radius stays within a small
// factor of the offline rebuild across growth and churn, with amortised
// O(1)-ish contacts per join and log-many structural moves (incremental
// ring splits/merges/extends; no full regrids).
#include "common.h"
#include "omt/protocol/overlay_session.h"

int main(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);
  const std::int64_t target = args.maxN.value_or(args.full ? 200000 : 30000);
  const int degree = 6;

  std::cout << "Online protocol vs offline rebuild (out-degree " << degree
            << ")\n\n";
  TextTable table({"Live", "OnlineRadius", "OfflineRadius", "Ratio",
                   "Regrids", "Splits", "Extends", "Contacts/op"});
  auto csv = openCsv(args, {"live", "online", "offline", "ratio", "regrids",
                            "splits", "extends", "contacts_per_op"});

  Rng rng(deriveSeed(1200, 0));
  OverlaySession session(Point{0.0, 0.0}, {.maxOutDegree = degree});
  std::vector<NodeId> live;
  std::int64_t nextReport = 1000;

  const auto report = [&]() {
    const SessionSnapshot snap = session.snapshot();
    const TreeMetrics online = computeMetrics(snap.tree, snap.positions);
    NodeId source = 0;
    for (std::size_t i = 0; i < snap.sessionIds.size(); ++i) {
      if (snap.sessionIds[i] == 0) source = static_cast<NodeId>(i);
    }
    const PolarGridResult offline =
        buildPolarGridTree(snap.positions, source, {.maxOutDegree = degree});
    const TreeMetrics offlineMetrics =
        computeMetrics(offline.tree, snap.positions);
    const SessionStats& stats = session.stats();
    const double ops = static_cast<double>(stats.joins + stats.leaves);
    table.addRow({TextTable::count(session.liveCount()),
                  TextTable::num(online.maxDelay, 3),
                  TextTable::num(offlineMetrics.maxDelay, 3),
                  TextTable::num(online.maxDelay / offlineMetrics.maxDelay, 2),
                  TextTable::count(stats.regrids),
                  TextTable::count(stats.splits),
                  TextTable::count(stats.extends),
                  TextTable::num(static_cast<double>(stats.contactCost) / ops,
                                 1)});
    if (csv) {
      csv->writeRow({std::to_string(session.liveCount()),
                     std::to_string(online.maxDelay),
                     std::to_string(offlineMetrics.maxDelay),
                     std::to_string(online.maxDelay / offlineMetrics.maxDelay),
                     std::to_string(stats.regrids),
                     std::to_string(stats.splits),
                     std::to_string(stats.extends),
                     std::to_string(static_cast<double>(stats.contactCost) /
                                    ops)});
    }
  };

  // Growth phase with 10% interleaved churn.
  while (session.liveCount() < target) {
    if (!live.empty() && rng.uniform() < 0.1) {
      const std::size_t pick = rng.uniformInt(live.size());
      session.leave(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      live.push_back(session.join(sampleUnitBall(rng, 2)));
    }
    if (session.liveCount() >= nextReport) {
      report();
      nextReport *= 10;
    }
  }
  report();

  // Churn phase: 20% of the membership turns over.
  const std::int64_t churnOps = session.liveCount() / 5;
  for (std::int64_t i = 0; i < churnOps; ++i) {
    const std::size_t pick = rng.uniformInt(live.size());
    session.leave(live[pick]);
    live[pick] = session.join(sampleUnitBall(rng, 2));
  }
  std::cout << "after " << churnOps << " churn replacements:\n";
  report();

  std::cout << table.str();
  std::cout << "\nShape check: Ratio stays within a small constant across "
               "growth and churn; Splits grows logarithmically (Regrids "
               "stays 0); Contacts/op stays small and "
               "flat.\n";
  return 0;
}
