#include "omt/sim/dataplane/link.h"

#include <algorithm>

#include "omt/common/error.h"

namespace omt {

double GilbertElliottOptions::stationaryBadProbability() const {
  if (!enabled()) return 0.0;
  return burstStartProbability /
         (burstStartProbability + burstStopProbability);
}

double GilbertElliottOptions::stationaryLossProbability(
    double baseLoss) const {
  const double bad = stationaryBadProbability();
  return (1.0 - bad) * baseLoss + bad * burstLossProbability;
}

void validateGilbertElliott(const GilbertElliottOptions& options) {
  OMT_CHECK(options.burstLossProbability >= 0.0 &&
                options.burstLossProbability < 1.0,
            "burst loss probability outside [0, 1)");
  OMT_CHECK(options.burstStartProbability >= 0.0 &&
                options.burstStartProbability < 1.0,
            "burst start probability outside [0, 1)");
  OMT_CHECK(!options.enabled() || (options.burstStopProbability > 0.0 &&
                                   options.burstStopProbability <= 1.0),
            "enabled burst chain needs stop probability in (0, 1]");
}

bool GilbertElliottChain::roll(Rng& rng, const GilbertElliottOptions& options,
                               double baseLoss, double extraLoss) {
  if (!options.enabled()) {
    // Plain i.i.d. path: exactly one draw per transmission when lossy, no
    // draws at zero loss (the geometric-retry code in sim/loss.cc relies on
    // this sequence staying bit-identical).
    if (extraLoss <= 0.0)
      return baseLoss > 0.0 && rng.uniform() < baseLoss;
    const double p = 1.0 - (1.0 - baseLoss) * (1.0 - extraLoss);
    return rng.uniform() < p;
  }
  const double stateLoss = bad_ ? options.burstLossProbability : baseLoss;
  const double p =
      extraLoss <= 0.0 ? stateLoss
                       : 1.0 - (1.0 - stateLoss) * (1.0 - extraLoss);
  const bool lost = p > 0.0 && rng.uniform() < p;
  // Advance the chain after the loss draw, one transition draw per
  // transmission.
  if (bad_) {
    if (rng.uniform() < options.burstStopProbability) bad_ = false;
  } else {
    if (rng.uniform() < options.burstStartProbability) bad_ = true;
  }
  return lost;
}

double lossBurstBoostAt(const std::vector<LossBurstWindow>& windows,
                        double now) {
  double pass = 1.0;
  for (const LossBurstWindow& w : windows) {
    if (now >= w.start && now < w.end) pass *= 1.0 - w.extraLoss;
  }
  return 1.0 - pass;
}

UplinkQueue::UplinkQueue(int capacity) : capacity_(capacity) {
  OMT_CHECK(capacity >= 1, "uplink queue capacity must be positive");
  departures_.assign(static_cast<std::size_t>(capacity), 0.0);
}

void UplinkQueue::evictDeparted(double now) {
  while (count_ > 0 && departures_[head_] <= now) {
    head_ = (head_ + 1) % static_cast<std::uint32_t>(capacity_);
    --count_;
  }
}

double UplinkQueue::enqueue(double now, double serialization) {
  evictDeparted(now);
  if (count_ >= static_cast<std::uint32_t>(capacity_)) {
    ++drops_;
    return -1.0;
  }
  const double start = std::max(now, uplinkFree_);
  const double depart = start + serialization;
  uplinkFree_ = depart;
  departures_[(head_ + count_) % static_cast<std::uint32_t>(capacity_)] =
      depart;
  ++count_;
  peak_ = std::max(peak_, static_cast<int>(count_));
  return depart;
}

int UplinkQueue::occupancy(double now) {
  evictDeparted(now);
  return static_cast<int>(count_);
}

double UplinkQueue::drainedTo(int jobs) const {
  OMT_CHECK(jobs >= 0 && static_cast<std::uint32_t>(jobs) < count_,
            "drain target must be below the queue's occupancy");
  const std::uint32_t k = count_ - static_cast<std::uint32_t>(jobs) - 1;
  return departures_[(head_ + k) % static_cast<std::uint32_t>(capacity_)];
}

}  // namespace omt
