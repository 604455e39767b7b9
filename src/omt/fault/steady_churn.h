// Steady-state churn runner: the sustained-load counterpart of the burst
// chaos harness in chaos.h.
//
// Where runChaos() replays a finite fault schedule and lets the overlay
// quiesce, runSteadyChurn() holds a session at a stationary population for
// a fixed number of membership events (join / graceful leave / crash in
// configurable proportions), sweeping detectAndRepair() and the radius
// watchdog every `sweepEvery` events. Each sweep optionally audits the
// full invariant set and samples radius drift, per-cell skew, and the
// per-event latency tail of the window — the curves BENCH_churn.json
// plots and the steady-state chaos gate asserts over 100 seeds.
//
// The runner is the watchdog's driver: in kParkJoins mode new joins are
// admitted parked and batched into the next sweep instead of attaching
// inline (the session itself never parks joins on its own).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "omt/fault/watchdog.h"
#include "omt/protocol/overlay_session.h"
#include "omt/report/stats.h"

namespace omt {

struct SteadyChurnOptions {
  int dim = 2;
  SessionOptions session;
  WatchdogOptions watchdog;
  /// Quality yardstick handed to the watchdog (see
  /// RadiusWatchdog::setBaselineRatio); 0 keeps the absolute alarm floor.
  double baselineRatio = 0.0;
  /// Hosts joined (and swept) before the measured event phase.
  std::int64_t warmupHosts = 512;
  /// Membership events in the measured phase.
  std::int64_t events = 20000;
  /// Probability an event is a departure (0.5 keeps the population
  /// stationary around the warmup level).
  double departureFraction = 0.5;
  /// Fraction of departures that crash instead of leaving gracefully.
  double crashFraction = 0.3;
  /// Events between detectAndRepair() + watchdog + audit sweeps.
  std::int64_t sweepEvery = 256;
  /// Population floor: below this every event is forced to be a join.
  std::int64_t minLive = 64;
  std::uint64_t seed = 1;
  /// Audit the full invariant set every sweep (O(hosts + cells)).
  bool checkInvariants = true;
  /// Time each membership event (wall clock; inherently nondeterministic).
  bool measureLatency = true;
  /// Materialise the final overlay into result.finalSnapshot.
  bool captureSnapshot = false;
};

/// One per-sweep sample row (the BENCH_churn.json curves).
struct SteadySweepSample {
  std::int64_t eventsDone = 0;
  std::int64_t liveCount = 0;
  double radiusRatio = 0.0;  ///< radius / lower bound after the sweep
  double maxSkew = 0.0;
  /// Per-event latency of the window since the previous sweep, seconds
  /// (zeros when measureLatency is off or the window was empty).
  double p50Latency = 0.0;
  double p99Latency = 0.0;
  double maxLatency = 0.0;
  WatchdogMode mode = WatchdogMode::kNormal;
  WatchdogAction action = WatchdogAction::kNone;
};

struct SteadyChurnResult {
  std::int64_t events = 0;
  std::int64_t joins = 0;
  std::int64_t leaves = 0;
  std::int64_t crashes = 0;
  /// Joins admitted parked (watchdog kParkJoins) and healed by a sweep.
  std::int64_t parkedJoins = 0;
  std::int64_t sweeps = 0;
  std::int64_t repairedSubtrees = 0;  ///< orphans re-homed by sweeps

  bool ok = true;              ///< invariants held at every audited sweep
  std::string firstViolation;  ///< first failed audit, empty when ok
  /// Every watchdog full regrid was preceded by a scoped rebuild in the
  /// same escalation episode (the gate's monotonicity verdict).
  bool escalationMonotone = true;
  /// Live hosts still disconnected (or crashes still unrepaired) after the
  /// final quiesce sweep; 0 in any healthy run.
  std::int64_t unrepairedOrphans = 0;

  double elapsedSeconds = 0.0;   ///< measured phase, wall clock
  double eventsPerSecond = 0.0;  ///< events / elapsedSeconds
  RunningStats radiusRatio;      ///< per-sweep drift samples
  double maxRatio = 0.0;
  RunningStats latencySeconds;   ///< all timed events
  std::vector<SteadySweepSample> sweepLog;

  WatchdogStats watchdog;
  SessionStats session;
  /// Engaged only when options.captureSnapshot.
  std::optional<SessionSnapshot> finalSnapshot;
};

SteadyChurnResult runSteadyChurn(const SteadyChurnOptions& options);

}  // namespace omt
