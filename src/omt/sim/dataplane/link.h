// Per-link loss and bandwidth model for the packet-level data plane.
//
// Every overlay edge is a unicast path with three failure surfaces:
//   * finite bandwidth — the sender's uplink serializes one packet per
//     child per `serializationTime`; sends that arrive while the uplink is
//     busy wait in a bounded FIFO (the NIC queue) and are tail-dropped when
//     it overflows. The engine feeds it only while it has headroom, so it
//     never tail-drops there; the drop path is exercised by its unit test;
//   * independent loss — each transmission is dropped i.i.d. with a base
//     probability (plus any active loss-burst window's boost);
//   * bursty loss — a two-state Gilbert–Elliott chain per uplink: the
//     "bad" state drops packets at a much higher rate and persists for a
//     geometric number of transmissions, producing the correlated gap
//     patterns that make NACK-based recovery interesting.
// The chain advances once per transmission, in global event order, so the
// whole loss pattern is a deterministic function of the engine seed.
#pragma once

#include <cstdint>
#include <vector>

#include "omt/random/rng.h"

namespace omt {

/// Two-state bursty-loss parameters. `burstStartProbability == 0` disables
/// the chain entirely; the disabled path consumes exactly one RNG draw per
/// transmission when the base loss probability is positive and none when it
/// is zero — bit-identical to the plain i.i.d. model.
struct GilbertElliottOptions {
  /// Loss probability while the chain is in the bad (burst) state.
  double burstLossProbability = 0.5;
  /// Per-transmission P(good -> bad). Zero disables the chain.
  double burstStartProbability = 0.0;
  /// Per-transmission P(bad -> good). Must be positive when the chain is
  /// enabled, or the bad state would be absorbing.
  double burstStopProbability = 0.25;

  bool enabled() const { return burstStartProbability > 0.0; }
  /// Stationary probability of the bad state (start / (start + stop)).
  double stationaryBadProbability() const;
  /// Long-run average per-transmission loss probability when the chain
  /// mixes base loss `p` in the good state with the burst loss in the bad
  /// state. Equals `p` when the chain is disabled.
  double stationaryLossProbability(double baseLoss) const;
};

/// Throws omt::InvalidArgument unless every probability is in range and the
/// enabled chain can leave the bad state.
void validateGilbertElliott(const GilbertElliottOptions& options);

/// The per-uplink chain state. One instance per sender; transmissions on
/// the uplink advance it in event order.
class GilbertElliottChain {
 public:
  bool bursting() const { return bad_; }

  /// One transmission: returns true iff it is lost. `baseLoss` applies in
  /// the good state, `extraLoss` (active loss-burst windows) is OR-combined
  /// with either state's rate. Consumes zero draws when every probability
  /// involved is zero and the chain is disabled.
  bool roll(Rng& rng, const GilbertElliottOptions& options, double baseLoss,
            double extraLoss = 0.0);

 private:
  bool bad_ = false;
};

/// One window of boosted data-plane loss (the fault injector's loss-burst
/// disruption windows project onto this — see dataplane/chaos.h).
struct LossBurstWindow {
  double start = 0.0;
  double end = 0.0;
  double extraLoss = 0.0;  ///< OR-combined with the per-state loss rate
};

/// Combined extra loss from every window active at `now`:
/// 1 - prod(1 - extra_i). Schedules hold a handful of windows, so a linear
/// scan is fine.
double lossBurstBoostAt(const std::vector<LossBurstWindow>& windows,
                        double now);

/// Bounded FIFO of departure times modelling one node's serialized uplink.
/// Jobs enter in event-time order and depart in FIFO order at
/// `max(now, uplinkFree) + serializationTime`; a job arriving while
/// `capacity` jobs are still queued or in service is tail-dropped.
class UplinkQueue {
 public:
  UplinkQueue() = default;
  explicit UplinkQueue(int capacity);

  /// Attempt to enqueue a send at time `now` taking `serialization` on the
  /// wire. Returns the departure (serialization-complete) time, or a
  /// negative value if the job was tail-dropped.
  double enqueue(double now, double serialization);

  /// Jobs queued or in service at time `now`.
  int occupancy(double now);

  /// The time at which only `jobs` of the currently held jobs remain
  /// queued or in service. Requires `jobs` below the current occupancy.
  double drainedTo(int jobs) const;

  int capacity() const { return capacity_; }
  std::int64_t drops() const { return drops_; }
  int peakOccupancy() const { return peak_; }

 private:
  void evictDeparted(double now);

  int capacity_ = 0;
  std::vector<double> departures_;  ///< ring buffer of departure times
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
  double uplinkFree_ = 0.0;
  std::int64_t drops_ = 0;
  int peak_ = 0;
};

}  // namespace omt
