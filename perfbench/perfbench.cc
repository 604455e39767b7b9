// The repository benchmark: the three paths a user of the library feels,
// driven through the public API with seeded inputs and checked outputs.
//
//   points -> tree            buildPolarGridTree
//   membership event -> route GroupManager::apply / quiesce / routes
//   packet emit -> delivery   runDataplane
//
// Usage (normally through perfbench/run.py, which builds this binary):
//   omt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every run executes all three paths, so every run can report every metric:
// the workload's own path runs at full size for the measured seconds, the
// other two run as small fixed-size probes (identical on every workload
// that does not own them) whose steps are spread over the whole run. A
// timed run (--trace 0) keeps observability off and reports the end-to-end
// metrics; a traced run (--trace 1) turns the omt/obs recorder on, wraps the
// public calls in the benchmark's own spans, folds them with the library's
// own spans and counters into per-layer numbers, and makes the extra calls
// only the layer split needs (a separate assignToGrid, one-worker rebuilds,
// a one-shard replay, a standalone OverlaySession replay, a
// RouteTable::build).
//
// The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by one {"environment": {...}} line.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "omt/core/bounds.h"
#include "omt/core/polar_grid_tree.h"
#include "omt/grid/assignment.h"
#include "omt/kernels/fast_math.h"
#include "omt/kernels/kernels.h"
#include "omt/kernels/sin_power_table.h"
#include "omt/obs/metrics.h"
#include "omt/obs/obs.h"
#include "omt/obs/trace.h"
#include "omt/parallel/thread_pool.h"
#include "omt/protocol/overlay_session.h"
#include "omt/random/rng.h"
#include "omt/random/samplers.h"
#include "omt/service/group_manager.h"
#include "omt/service/replay.h"
#include "omt/service/route_table.h"
#include "omt/service/script.h"
#include "omt/sim/dataplane/engine.h"
#include "omt/tree/metrics.h"

namespace {

using omt::Point;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return values.empty() ? 0.0 : total / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Work per second over a run: total work over total seconds, so it moves
/// smoothly with the share of the run the shared machine was slow for
/// (a median of per-sample rates jumps between a fast and a slow level).
struct Throughput {
  double work = 0.0;
  double seconds = 0.0;
  std::size_t samples = 0;

  void add(double w, double s) {
    work += w;
    seconds += s;
    ++samples;
  }
  double rate() const { return ratio(work, seconds); }
};

std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index) {
  return omt::deriveSeed(omt::deriveSeed(seed, stream), index);
}

/// Build workers and service shards of a workload's own path, passed
/// explicitly through the public options (never OMT_THREADS): one per core
/// of the 4-core machine the benchmark was tuned on. The probes run on one
/// thread, which a busy shared host slows far less than a 4-way barrier.
constexpr int kWorkers = 4;

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value (0 = n/a)
};

struct Run {
  std::uint64_t seed = 1;
  bool trace = false;
  std::map<std::string, Metric> endToEnd;
  std::map<std::string, Metric> perLayer;
  perfbench::CheckLedger checks;
  double setupSeconds = 0.0;

  void e2e(const std::string& name, double value, const char* unit,
           std::size_t samples = 0) {
    endToEnd[name] = {value, unit, samples};
  }
  void layer(const std::string& name, double value, const char* unit) {
    perLayer[name] = {value, unit};
  }
};

// --- trace folding ---------------------------------------------------------

/// Self time (duration minus the time its child spans cover) of every span
/// recorded since the last fold, grouped by span name; clears the recorder.
/// A span's parent is the one it names, or else the innermost span that
/// encloses it on the same thread: the library opens its top-level spans
/// without a parent, and nesting is what places them inside the
/// benchmark's own spans.
std::map<std::string, std::vector<double>> foldSpans() {
  auto& recorder = omt::obs::TraceRecorder::global();
  const std::vector<omt::obs::TraceEvent> events = recorder.sortedEvents();
  const auto endNs = [&](std::size_t i) {
    return events[i].startNs + events[i].durationNs;
  };
  std::unordered_map<omt::obs::SpanId, std::size_t> indexOf;
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    indexOf[events[i].id] = i;
    order[i] = i;
  }
  // Outer spans first, so a per-thread stack holds the enclosing chain.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (events[a].startNs != events[b].startNs)
      return events[a].startNs < events[b].startNs;
    return events[a].durationNs > events[b].durationNs;
  });
  std::vector<std::int64_t> childNs(events.size(), 0);
  std::unordered_map<int, std::vector<std::size_t>> open;
  for (const std::size_t i : order) {
    std::vector<std::size_t>& stack = open[events[i].shard];
    while (!stack.empty() && endNs(stack.back()) < endNs(i)) stack.pop_back();
    const auto named = indexOf.find(events[i].parent);
    if (events[i].parent != 0 && named != indexOf.end())
      childNs[named->second] += events[i].durationNs;
    else if (!stack.empty())
      childNs[stack.back()] += events[i].durationNs;
    stack.push_back(i);
  }
  std::map<std::string, std::vector<double>> self;
  for (std::size_t i = 0; i < events.size(); ++i)
    self[events[i].name].push_back(
        static_cast<double>(events[i].durationNs - childNs[i]) * 1e-9);
  recorder.clear();
  return self;
}

double spanTotal(const std::map<std::string, std::vector<double>>& self,
                 const char* name) {
  const auto it = self.find(name);
  if (it == self.end()) return 0.0;
  double total = 0.0;
  for (const double s : it->second) total += s;
  return total;
}

std::int64_t counterValue(const char* name) {
  return omt::obs::MetricsRegistry::global().counter(name).value();
}

/// Observability recording on, from zeroed spans and counters, for one
/// traced segment of the run.
class TraceScope {
 public:
  TraceScope() {
    omt::obs::TraceRecorder::global().clear();
    omt::obs::MetricsRegistry::global().resetValues();
    omt::obs::setEnabled(true);
  }
  ~TraceScope() { omt::obs::setEnabled(false); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
};

// --- paths ------------------------------------------------------------------

/// One user path, measured in steps.
class PathBench {
 public:
  explicit PathBench(Run& run) : run_(run) {}
  virtual ~PathBench() = default;
  PathBench(const PathBench&) = delete;
  PathBench& operator=(const PathBench&) = delete;

  /// One-time initialisation, then input generation and a warm-up call
  /// kSetups times; returns the one-time seconds plus the median repetition.
  virtual double setup() = 0;
  /// One unit of measured work; increments steps_.
  virtual void step() = 0;
  /// Steps the reported metrics need (a fixed count: the metrics that
  /// depend only on the seed are taken over exactly these).
  virtual int minSteps() const = 0;
  /// Whole-run checks and the end-to-end metrics; in a traced run also the
  /// traced segment (`tracedBudget` seconds, 0 = its minimum) and the
  /// per-layer metrics.
  virtual void finish(double tracedBudget) = 0;

  int stepsDone() const { return steps_; }

 protected:
  Run& run_;
  int steps_ = 0;  ///< incremented by step()
};

/// Set-up repetitions a path's setup() takes the median of.
constexpr int kSetups = 5;

double medianOfSetups(const std::function<void(int)>& rep) {
  std::vector<double> seconds;
  for (int r = 0; r < kSetups; ++r) {
    const auto t0 = Clock::now();
    rep(r);
    seconds.push_back(secondsSince(t0));
  }
  return median(seconds);
}

// --- points -> tree --------------------------------------------------------

struct BuildConfig {
  int dim = 2;
  std::int64_t n = 0;
  int degree = 6;
  int sets = 0;  ///< point sets the radius ratio is averaged over
  int workers = kWorkers;
};

omt::PolarGridResult buildTree(std::span<const Point> points, int degree,
                               int workers) {
  const omt::obs::TraceSpan span("bench.build", "perfbench");
  return omt::buildPolarGridTree(points, 0,
                                 {.maxOutDegree = degree, .workers = workers});
}

class BuildBench final : public PathBench {
 public:
  BuildBench(Run& run, const BuildConfig& c) : PathBench(run), c_(c) {}

  double setup() override {
    // One-time: the lazy sin^k quantile tables this dimension's builds
    // consult (k = dim - 2 - j >= 2). There are none at d <= 3, where every
    // inversion is closed form, so the time is only the clock's.
    const auto t0 = Clock::now();
    for (int k = 2; k <= std::min(c_.dim - 2, omt::kernels::kMaxTabledPower); ++k)
      omt::kernels::quantileTable(k);
    tableSeconds_ = secondsSince(t0);
    std::vector<double> sample;
    const double seconds = medianOfSetups([&](int rep) {
      const auto s0 = Clock::now();
      const std::vector<Point> points =
          sample_(subSeed(run_.seed, 0x5E7, static_cast<std::uint64_t>(rep)));
      sample.push_back(secondsSince(s0));
      buildTree(points, c_.degree, c_.workers);
    });
    sampleSeconds_ = median(sample);
    return tableSeconds_ + seconds;
  }

  int minSteps() const override { return c_.sets; }

  void step() override {
    const int i = steps_++;
    const std::vector<Point> points = set(i);
    const auto t0 = Clock::now();
    const omt::PolarGridResult result = buildTree(points, c_.degree, c_.workers);
    seconds_.push_back(secondsSince(t0));
    perfbench::checkTree(run_.checks, result.tree, c_.degree);
    if (i >= c_.sets) return;
    const std::vector<double> delays = omt::computeDelays(result.tree, points);
    radiusRatios_.push_back(*std::max_element(delays.begin(), delays.end()) /
                            omt::radiusLowerBound(points, 0));
    if (i < kRebuilds) hashes_.push_back(perfbench::parentArrayHash(result.tree));
    if (i > 0) return;
    run_.layer("grid.occupied_cells", static_cast<double>(result.occupiedCells),
               "count");
    run_.layer("grid.rings", result.rings(), "count");
  }

  void finish(double tracedBudget) override {
    run_.e2e("build_s_p50", median(seconds_), "s", seconds_.size());
    run_.e2e("radius_ratio", mean(radiusRatios_), "ratio");
    // Worker-count determinism: the first point sets rebuilt at the other
    // worker count (1 for a 4-worker path, 4 for a 1-worker probe). A
    // traced run times each rebuild against the same set's own build.
    const int other = c_.workers == 1 ? kWorkers : 1;
    std::vector<double> speedups;
    for (int i = 0; i < (run_.trace ? kRebuilds : 1); ++i) {
      const std::vector<Point> points = set(i);
      const auto t0 = Clock::now();
      const omt::PolarGridResult rebuilt = buildTree(points, c_.degree, other);
      const double rebuiltSeconds = secondsSince(t0);
      perfbench::checkEqual(run_.checks, "parent hash at 1 vs 4 workers",
                            perfbench::parentArrayHash(rebuilt.tree),
                            hashes_[static_cast<std::size_t>(i)]);
      const double own = seconds_[static_cast<std::size_t>(i)];
      speedups.push_back(other == 1 ? rebuiltSeconds / own : own / rebuiltSeconds);
    }
    if (!run_.trace) return;

    run_.layer("random.sample_s", sampleSeconds_, "s");
    run_.layer("kernels.table_build_s", tableSeconds_, "s");
    run_.layer("parallel.build_speedup", median(speedups), "ratio");
    std::map<std::string, std::vector<double>> stages;
    std::vector<double> traced, assign, unspanned, unspannedShare;
    std::int64_t hits = 0, misses = 0, calls = 0, iterations = 0;
    {
      const TraceScope scope;
      const auto start = Clock::now();
      for (int i = 0; i < 3 || secondsSince(start) < tracedBudget; ++i) {
        const std::vector<Point> points = set(steps_ + i);
        const auto b0 = Clock::now();
        const omt::PolarGridResult result =
            buildTree(points, c_.degree, c_.workers);
        traced.push_back(secondsSince(b0));
        perfbench::checkTree(run_.checks, result.tree, c_.degree);
        const auto self = foldSpans();
        for (const char* name : {"polar_pass", "classification", "csr_build",
                                 "stage2a_representatives", "stage2b3_cell_wiring"})
          stages[name].push_back(spanTotal(self, name));
        // Build wall time outside every library stage span.
        const double outside = spanTotal(self, "bench.build") +
                               spanTotal(self, "build_polar_grid_tree") +
                               spanTotal(self, "assign_to_grid");
        unspanned.push_back(outside);
        unspannedShare.push_back(outside / traced.back());
        if (i < 3) {
          const auto a0 = Clock::now();
          omt::assignToGrid(points, 0, {.workers = c_.workers});
          assign.push_back(secondsSince(a0));
          foldSpans();
        }
      }
      hits = counterValue("omt_kernel_table_hits_total");
      misses = counterValue("omt_kernel_table_misses_total");
      calls = counterValue("omt_kernel_invert_calls_total");
      iterations = counterValue("omt_kernel_invert_iterations_total");
    }
    run_.layer("grid.assign_s", median(assign), "s");
    run_.layer("grid.polar_pass_s", median(stages["polar_pass"]), "s");
    run_.layer("grid.classification_s", median(stages["classification"]), "s");
    run_.layer("grid.csr_build_s", median(stages["csr_build"]), "s");
    run_.layer("core.stage2a_s", median(stages["stage2a_representatives"]), "s");
    run_.layer("core.stage2b3_s", median(stages["stage2b3_cell_wiring"]), "s");
    run_.layer("core.unspanned_s", median(unspanned), "s");
    run_.layer("core.unspanned_share", median(unspannedShare), "ratio");
    // 0 when no inversion consulted a table (builds at d <= 3 need none).
    run_.layer("kernels.table_hit_share",
               ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
               "ratio");
    run_.layer("kernels.newton_iters_per_call",
               ratio(static_cast<double>(iterations), static_cast<double>(calls)),
               "count");
    if (tracedBudget > 0.0)
      run_.layer("bench.trace_overhead_share",
                 median(traced) / median(seconds_) - 1.0, "ratio");
  }

 private:
  std::vector<Point> sample_(std::uint64_t seed) const {
    omt::Rng rng(seed);
    return omt::sampleDiskWithCenterSource(rng, c_.n, c_.dim);
  }
  /// Point set i of the run: a fresh seeded set per build.
  std::vector<Point> set(int i) const {
    return sample_(subSeed(run_.seed, 0xB0, static_cast<std::uint64_t>(i)));
  }

  static constexpr int kRebuilds = 3;  ///< sets rebuilt at the other worker count

  BuildConfig c_;
  std::vector<double> seconds_;
  std::vector<double> radiusRatios_;
  std::vector<std::uint64_t> hashes_;  ///< parent hashes of the first sets
  double sampleSeconds_ = 0.0;
  double tableSeconds_ = 0.0;
};

// --- membership event -> route epoch --------------------------------------

constexpr double kOpenLoopRate = 600000.0;  ///< open-loop events per second
constexpr std::size_t kBatch = 1024;        ///< closed-loop apply() batch

struct ServiceConfig {
  omt::ScriptOptions script;
  int shards = kWorkers;
  int closedPasses = 1;  ///< closed-loop replays the metrics need
  int openPasses = 1;    ///< open-loop replays the metrics need
  std::int64_t readsPerPass = 0;  ///< route reads after every replay
};

omt::ServiceOptions serviceOptions(int shards) {
  omt::ServiceOptions options;
  options.shards = shards;
  return options;
}

/// Replays one script per pass into a fresh GroupManager, alternating a
/// closed loop (1024-event apply() batches as fast as they return, then
/// quiesce) and an open loop (events due on a fixed schedule, handed over
/// every 1 ms tick). Every replay is followed by a slice of single-thread
/// route reads against its final snapshots.
class ServiceBench final : public PathBench {
 public:
  ServiceBench(Run& run, const ServiceConfig& c) : PathBench(run), c_(c) {}

  double setup() override {
    return medianOfSetups([&](int) {
      omt::ScriptOptions script = c_.script;
      script.seed = subSeed(run_.seed, 0x5C, 0);
      events_ = omt::generateMembershipScript(script);
      omt::GroupManager warm(serviceOptions(c_.shards));
      warm.apply(std::span<const omt::MembershipEvent>(events_).first(kBatch));
    });
  }

  int minSteps() const override { return c_.closedPasses + c_.openPasses; }

  void step() override {
    omt::GroupManager manager(serviceOptions(c_.shards));
    // Open passes spread evenly among the closed ones; the first is closed.
    const int i = steps_++ % minSteps();
    if ((i + 1) * c_.openPasses / minSteps() == i * c_.openPasses / minSteps()) {
      closed_.add(static_cast<double>(events_.size()), closedLoop(manager));
      if (closed_.samples == 1) {
        closedFingerprint_ = omt::serviceFingerprint(manager);
        firstStats_ = manager.stats();
        firstUtilization_ = shardUtilization(manager);
      } else {
        perfbench::checkEqual(run_.checks, "closed-loop fingerprint on repeat",
                              omt::serviceFingerprint(manager), closedFingerprint_);
      }
    } else {
      openLoop(manager);
      perfbench::checkEqual(run_.checks, "open- vs closed-loop fingerprint",
                            omt::serviceFingerprint(manager), closedFingerprint_);
    }
    routeReads(manager);
  }

  void finish(double tracedBudget) override {
    run_.e2e("events_per_s", closed_.rate(), "1/s", closed_.samples);
    run_.e2e("route_latency_p50_ms", median(windowP50_) * 1e3, "ms",
             windowP50_.size());
    run_.e2e("route_reads_per_s", reads_.rate(), "1/s", reads_.samples);
    if (!run_.trace) return;

    run_.layer("bench.driver_lag_ms", quantile(lag_, 0.99) * 1e3, "ms");
    run_.layer("route_latency_p99_ms", median(windowP99_) * 1e3, "ms");
    run_.layer("service.read_ns", 1e9 / reads_.rate(), "ns");
    run_.layer("service.publishes_per_event",
               ratio(static_cast<double>(firstStats_.publishes),
                     static_cast<double>(firstStats_.events)),
               "ratio");
    run_.layer("service.delta_share",
               ratio(static_cast<double>(firstStats_.deltaPublishes),
                     static_cast<double>(firstStats_.publishes)),
               "ratio");
    run_.layer("service.shard_utilization", firstUtilization_, "ratio");
    run_.layer("service.migrations", static_cast<double>(firstStats_.migrations),
               "count");

    Throughput traced;
    std::map<std::string, std::vector<double>> spans;
    {
      const TraceScope scope;
      const auto start = Clock::now();
      do {
        omt::GroupManager manager(serviceOptions(c_.shards));
        traced.add(static_cast<double>(events_.size()), closedLoop(manager));
        for (auto& [name, self] : foldSpans())
          spans[name].insert(spans[name].end(), self.begin(), self.end());
      } while (secondsSince(start) < tracedBudget);
    }
    run_.layer("service.apply_ms_p50", quantile(spans["bench.apply"], 0.50) * 1e3,
               "ms");
    run_.layer("service.apply_ms_p99", quantile(spans["bench.apply"], 0.99) * 1e3,
               "ms");
    run_.layer("service.quiesce_s", median(spans["bench.quiesce"]), "s");
    if (tracedBudget > 0.0)
      run_.layer("bench.trace_overhead_share",
                 closed_.rate() / traced.rate() - 1.0, "ratio");

    omt::GroupManager serial(serviceOptions(1));
    const double serialRate =
        static_cast<double>(events_.size()) / closedLoop(serial);
    perfbench::checkEqual(run_.checks, "service fingerprint at 1 shard vs the run's shards",
                          omt::serviceFingerprint(serial), closedFingerprint_);
    run_.layer("parallel.service_speedup", closed_.rate() / serialRate,
               "ratio");
    protocolReplay();
  }

 private:
  /// Returns the seconds spent inside apply() and quiesce().
  double closedLoop(omt::GroupManager& manager) {
    const std::span<const omt::MembershipEvent> all(events_);
    double busy = 0.0;
    for (std::size_t at = 0; at < all.size(); at += kBatch) {
      const std::size_t len = std::min(kBatch, all.size() - at);
      const auto t0 = Clock::now();
      {
        const omt::obs::TraceSpan span("bench.apply", "perfbench");
        manager.apply(all.subspan(at, len));
      }
      busy += secondsSince(t0);
    }
    const auto t0 = Clock::now();
    std::int64_t degraded = 0;
    {
      const omt::obs::TraceSpan span("bench.quiesce", "perfbench");
      degraded = manager.quiesce(events_.back().time);
    }
    busy += secondsSince(t0);
    perfbench::checkService(run_.checks, manager, degraded);
    return busy;
  }

  /// Event i is due at start + i / rate; every 1 ms tick hands the events
  /// due so far to one apply(). Latency runs from an event's due time to
  /// the return of the apply() that published it, so a stall also delays
  /// every event queued behind it. Both quantiles are taken per kWindow of
  /// due times and reported as the median over the windows: one stall of
  /// the shared machine spoils one window, not the whole pass.
  void openLoop(omt::GroupManager& manager) {
    constexpr double kWindow = 0.1;
    const auto n = static_cast<std::int64_t>(events_.size());
    const std::span<const omt::MembershipEvent> all(events_);
    std::vector<double> latency(events_.size());
    const auto tick = std::chrono::microseconds(1000);
    const auto start = Clock::now();
    std::int64_t next = 0;
    for (std::int64_t k = 1; next < n; ++k) {
      const auto due = start + k * tick;
      std::this_thread::sleep_until(due);
      const auto handoff = Clock::now();
      const double late = std::chrono::duration<double>(handoff - due).count();
      lag_.push_back(late);
      const double elapsed =
          std::chrono::duration<double>(handoff - start).count();
      const std::int64_t upto = std::min(
          n, static_cast<std::int64_t>(elapsed * kOpenLoopRate) + 1);
      if (upto > next) {
        manager.apply(all.subspan(static_cast<std::size_t>(next),
                                  static_cast<std::size_t>(upto - next)));
        const double done = secondsSince(start);
        for (std::int64_t i = next; i < upto; ++i)
          latency[static_cast<std::size_t>(i)] =
              done - static_cast<double>(i) / kOpenLoopRate;
        next = upto;
      }
      // After an overrun, resume on the current tick instead of firing the
      // missed ones back to back.
      if (late > 1e-3) k = static_cast<std::int64_t>(elapsed * 1e3);
    }
    const auto perWindow = static_cast<std::ptrdiff_t>(kWindow * kOpenLoopRate);
    for (auto at = latency.begin(); latency.end() - at >= perWindow; at += perWindow) {
      windowP50_.push_back(quantile({at, at + perWindow}, 0.50));
      windowP99_.push_back(quantile({at, at + perWindow}, 0.99));
    }
    perfbench::checkService(run_.checks, manager,
                            manager.quiesce(events_.back().time));
  }

  /// routes(g), then parentOf on a random live member of g, timed per
  /// chunk of reads.
  void routeReads(const omt::GroupManager& manager) {
    constexpr std::int64_t kChunk = 100000;
    std::vector<omt::GroupId> live;
    for (const omt::GroupId g : manager.createdGroups())
      if (const auto table = manager.routes(g); table && !table->empty())
        live.push_back(g);
    omt::Rng rng(subSeed(run_.seed, 0x4EAD, static_cast<std::uint64_t>(stepsDone())));
    std::int64_t misses = 0;
    for (std::int64_t done = 0; done < c_.readsPerPass; done += kChunk) {
      const auto t0 = Clock::now();
      for (std::int64_t r = 0; r < kChunk; ++r) {
        const omt::GroupId g = live[rng.nextU64() % live.size()];
        const auto table = manager.routes(g);
        const auto hosts = table->hosts();
        const omt::HostId host = hosts[rng.nextU64() % hosts.size()];
        misses += table->parentOf(host) == omt::kNotMember;
      }
      reads_.add(static_cast<double>(kChunk), secondsSince(t0));
    }
    run_.checks.record(misses == 0, "route reads: " + std::to_string(misses) +
                                        " live member(s) not found");
  }

  static double shardUtilization(const omt::GroupManager& manager) {
    const auto loads = manager.shardLoads();
    double maxLoad = 0.0, total = 0.0;
    for (const std::int64_t load : loads) {
      maxLoad = std::max(maxLoad, static_cast<double>(load));
      total += static_cast<double>(load);
    }
    return ratio(maxLoad * static_cast<double>(loads.size()), total);
  }

  /// The heaviest group's own event subsequence replayed through the
  /// OverlaySession calls the service makes for it, one timed call per
  /// event, then a full RouteTable::build of the final session.
  void protocolReplay() {
    const std::vector<omt::MembershipEvent> head = omt::filterGroup(events_, 0);
    const int dim = c_.script.dim;
    omt::SessionOptions options;
    auto session = std::make_unique<omt::OverlaySession>(Point(dim), options);
    session->enableChangeJournal();
    std::vector<omt::HostId> hostOf{omt::kNoHost};
    omt::HostIndex nodeOf;
    std::vector<double> opSeconds;
    omt::SessionStats stats;
    const auto addStats = [&stats](const omt::SessionStats& s) {
      stats.splits += s.splits;
      stats.merges += s.merges;
      stats.regrids += s.regrids;
    };
    for (const omt::MembershipEvent& e : head) {
      const auto t0 = Clock::now();
      if (e.kind == omt::ServiceEventKind::kJoin) {
        const omt::NodeId id = session->join(e.position);
        hostOf.push_back(e.host);
        nodeOf.insert(e.host, id);
      } else {
        const omt::NodeId node = nodeOf.find(e.host);
        if (e.kind == omt::ServiceEventKind::kLeave) {
          session->leave(node);
        } else {
          session->crash(node);
          session->repairCrashed(node);
        }
        nodeOf.erase(e.host);
      }
      opSeconds.push_back(secondsSince(t0));
      session->clearChanges();
      if (nodeOf.empty()) {  // the service tears an emptied group down
        addStats(session->stats());
        session = std::make_unique<omt::OverlaySession>(Point(dim), options);
        session->enableChangeJournal();
        hostOf.assign(1, omt::kNoHost);
      }
    }
    addStats(session->stats());
    run_.layer("protocol.op_us_p50", quantile(opSeconds, 0.50) * 1e6, "us");
    run_.layer("protocol.op_us_p99", quantile(opSeconds, 0.99) * 1e6, "us");
    run_.layer("protocol.splits", static_cast<double>(stats.splits), "count");
    run_.layer("protocol.merges", static_cast<double>(stats.merges), "count");
    run_.layer("protocol.regrids", static_cast<double>(stats.regrids), "count");

    std::vector<double> buildSeconds;
    for (int rep = 0; rep < 20; ++rep) {
      const auto t0 = Clock::now();
      const auto table = omt::RouteTable::build(*session, hostOf, 0, 1);
      buildSeconds.push_back(secondsSince(t0));
      if (rep == 0)
        perfbench::checkRouteTable(run_.checks, *table, options.maxOutDegree);
    }
    run_.layer("route_table.full_build_us", median(buildSeconds) * 1e6, "us");
  }

  ServiceConfig c_;
  std::vector<omt::MembershipEvent> events_;
  Throughput closed_, reads_;
  std::uint64_t closedFingerprint_ = 0;
  omt::ServiceStats firstStats_;
  double firstUtilization_ = 0.0;
  std::vector<double> windowP50_, windowP99_, lag_;
};

// --- packet emit -> delivery -----------------------------------------------

struct DataplaneConfig {
  std::int64_t hosts = 0;
  std::int64_t packets = 0;
  int sessions = 0;  ///< sessions the latencies and shares are taken over
};

/// One session per step: a fresh seeded host set, its degree-6 Polar_Grid
/// tree, and a data-plane run over it (1% i.i.d. link loss, 0.5% control
/// loss) with its own loss seed.
class DataplaneBench final : public PathBench {
 public:
  DataplaneBench(Run& run, const DataplaneConfig& c) : PathBench(run), c_(c) {}

  double setup() override {
    return medianOfSetups([&](int rep) {
      const Session s = session(0x5D, rep);
      auto warm = options(1);
      warm.packetCount = std::min<std::int64_t>(c_.packets, 50);
      omt::dataplane::runDataplane(s.built.tree, s.points, warm);
    });
  }

  int minSteps() const override { return c_.sessions; }

  void step() override {
    const int i = steps_++;
    const auto r = run(i);
    goodput_.add(static_cast<double>(r.deliveries), r.wallSeconds);
    if (i == 0) firstHash_ = r.deliveryLogHash;
    if (i >= c_.sessions) return;
    nsPerEvent_.push_back(r.wallSeconds * 1e9 /
                          static_cast<double>(r.eventsProcessed));
    eventsPerDelivery_.push_back(static_cast<double>(r.eventsProcessed) /
                                 static_cast<double>(r.deliveries));
    p50_.push_back(r.deliveryLatency.p50());
    p99_.push_back(r.deliveryLatency.p99());
    delivered_ += static_cast<double>(r.deliveries);
    transmissions_ += static_cast<double>(r.packetsSent + r.queueDrops);
    linkLosses_ += static_cast<double>(r.linkLosses);
    retransmits_ += static_cast<double>(r.retransmits);
    nacks_ += static_cast<double>(r.nacksSent);
    queueDrops_ += static_cast<double>(r.queueDrops);
    peakQueue_ = std::max(peakQueue_, static_cast<double>(r.peakQueueDepth));
    evictionMisses_ += static_cast<double>(r.evictionMisses);
    refetches_ += static_cast<double>(r.refetches);
    syncs_ += static_cast<double>(r.syncsSent);
  }

  void finish(double tracedBudget) override {
    run_.e2e("delivery_p50_s", mean(p50_), "s");
    run_.e2e("delivery_p99_s", mean(p99_), "s");
    run_.e2e("deliveries_per_s", goodput_.rate(), "1/s", goodput_.samples);
    run_.e2e("useful_tx_share", delivered_ / transmissions_, "ratio");
    // Determinism: session 0 replayed must log the same deliveries.
    perfbench::checkEqual(run_.checks, "delivery log hash on replay",
                          run(0).deliveryLogHash, firstHash_);
    if (!run_.trace) return;

    const double sessions = c_.sessions;
    run_.layer("dataplane.ns_per_event", median(nsPerEvent_), "ns");
    run_.layer("dataplane.events_per_delivery", median(eventsPerDelivery_),
               "ratio");
    run_.layer("dataplane.retx_per_link_loss", ratio(retransmits_, linkLosses_),
               "ratio");
    run_.layer("dataplane.nacks_per_link_loss", ratio(nacks_, linkLosses_),
               "ratio");
    run_.layer("dataplane.queue_drops_per_delivery", queueDrops_ / delivered_,
               "ratio");
    run_.layer("dataplane.peak_queue_depth", peakQueue_, "count");
    run_.layer("dataplane.eviction_misses", evictionMisses_ / sessions, "count");
    run_.layer("dataplane.refetches", refetches_ / sessions, "count");
    run_.layer("dataplane.syncs", syncs_ / sessions, "count");

    Throughput traced;
    {
      const TraceScope scope;
      const auto start = Clock::now();
      for (int j = stepsDone();
           traced.samples == 0 || secondsSince(start) < tracedBudget; ++j) {
        const auto r = run(j);
        traced.add(static_cast<double>(r.deliveries), r.wallSeconds);
      }
      foldSpans();
    }
    if (tracedBudget > 0.0)
      run_.layer("bench.trace_overhead_share",
                 goodput_.rate() / traced.rate() - 1.0, "ratio");
  }

 private:
  struct Session {
    std::vector<Point> points;
    omt::PolarGridResult built;
  };

  Session session(std::uint64_t stream, int i) {
    omt::Rng rng(subSeed(run_.seed, stream, static_cast<std::uint64_t>(i)));
    std::vector<Point> points = omt::sampleDiskWithCenterSource(rng, c_.hosts, 2);
    omt::PolarGridResult built = omt::buildPolarGridTree(
        points, 0, {.maxOutDegree = kDegree, .workers = 1});
    perfbench::checkTree(run_.checks, built.tree, kDegree);
    return {std::move(points), std::move(built)};
  }

  omt::dataplane::DataplaneOptions options(std::uint64_t seed) const {
    omt::dataplane::DataplaneOptions o;
    o.packetCount = c_.packets;
    o.lossProbability = 0.01;
    o.controlLoss = 0.005;
    o.maxOutDegree = kDegree;
    o.seed = seed;
    return o;
  }

  /// Session i of the run, checked for exactly-once completion.
  omt::dataplane::DataplaneResult run(int i) {
    const Session s = session(0xD0, i);
    const omt::obs::TraceSpan span("bench.dataplane", "perfbench");
    auto r = omt::dataplane::runDataplane(
        s.built.tree, s.points,
        options(subSeed(run_.seed, 0xD1, static_cast<std::uint64_t>(i))));
    perfbench::checkDataplane(run_.checks, r);
    return r;
  }

  static constexpr int kDegree = 6;
  DataplaneConfig c_;
  Throughput goodput_;
  std::vector<double> nsPerEvent_, eventsPerDelivery_, p50_, p99_;
  double delivered_ = 0.0, transmissions_ = 0.0, linkLosses_ = 0.0;
  double retransmits_ = 0.0, nacks_ = 0.0, queueDrops_ = 0.0;
  double peakQueue_ = 0.0, evictionMisses_ = 0.0, refetches_ = 0.0, syncs_ = 0.0;
  std::uint64_t firstHash_ = 0;
};

// --- workloads --------------------------------------------------------------

enum class PathKind { kBuild, kService, kDataplane };

struct Workload {
  const char* name;
  PathKind own;
  BuildConfig build;
  ServiceConfig service;
  DataplaneConfig dataplane;
};

// The probes: small fixed inputs for the two paths a workload does not own.
constexpr BuildConfig kBuildProbe{.dim = 2, .n = 50000, .degree = 6, .sets = 60,
                                  .workers = 1};

ServiceConfig serviceProbe() {
  ServiceConfig c;
  c.script.groups = 100;
  c.script.hosts = 4000;
  c.script.events = 400000;
  c.script.sizeSkew = 1.0;
  c.shards = 1;
  c.closedPasses = 8;
  c.openPasses = 3;
  c.readsPerPass = 500000;
  return c;
}

constexpr DataplaneConfig kDataplaneProbe{.hosts = 500, .packets = 200,
                                          .sessions = 40};

std::vector<Workload> workloads() {
  ServiceConfig zipf;
  zipf.script.groups = 1000;
  zipf.script.hosts = 20000;
  zipf.script.events = 2000000;
  zipf.script.meanGroupSize = 24.0;
  zipf.script.sizeSkew = 1.0;
  zipf.script.crashFraction = 0.3;
  zipf.closedPasses = 4;
  zipf.openPasses = 3;
  zipf.readsPerPass = 1000000;
  return {
      {"build-2d", PathKind::kBuild,
       {.dim = 2, .n = 1000000, .degree = 6, .sets = 8},
       serviceProbe(), kDataplaneProbe},
      {"build-3d", PathKind::kBuild,
       {.dim = 3, .n = 1000000, .degree = 10, .sets = 8},
       serviceProbe(), kDataplaneProbe},
      {"service-zipf", PathKind::kService, kBuildProbe, zipf, kDataplaneProbe},
      {"dataplane-lossy", PathKind::kDataplane, kBuildProbe, serviceProbe(),
       {.hosts = 2000, .packets = 800, .sessions = 10}},
  };
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string envOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

/// The toggles a timed run must see at their defaults: exact kernels,
/// tables on, observability off, no OMT_THREADS override.
bool togglesAtDefaults() {
  return omt::kernels::enabled() && !omt::kernels::fast_math::enabled() &&
         !omt::obs::enabled() && std::getenv("OMT_THREADS") == nullptr &&
         std::getenv("OMT_FAST_MATH_SIMD") == nullptr;
}

void printEnvironment(const Workload& w, const std::string& commit,
                      const std::string& digest, bool defaults) {
  std::ostringstream out;
  out << "{\"environment\": {"
      << "\"workload\": " << jsonString(w.name)
      << ", \"commit\": " << jsonString(commit)
      << ", \"source_digest\": " << jsonString(digest)
      << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
      << ", \"compiler_version\": " << jsonString(__VERSION__)
      << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
      << ", \"cxx_flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"workers\": " << kWorkers << ", \"shards\": " << kWorkers;
  for (const char* name : {"OMT_OBS", "OMT_FAST_MATH", "OMT_FAST_MATH_SIMD",
                           "OMT_KERNEL_TABLES", "OMT_THREADS"})
    out << ", " << jsonString(name) << ": " << jsonString(envOr(name, "unset"));
  out << ", \"kernel_tables\": " << (omt::kernels::enabled() ? "true" : "false")
      << ", \"fast_math\": "
      << (omt::kernels::fast_math::enabled() ? "true" : "false")
      << ", \"obs_compiled_in\": "
      << (omt::obs::compiledIn() ? "true" : "false")
      << ", \"toggles_at_defaults\": " << (defaults ? "true" : "false") << "}}";
  std::cout << out.str() << "\n";
}

void printResult(const Run& run, bool valid) {
  const auto& metrics = run.trace ? run.perLayer : run.endToEnd;
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": "
      << (valid && run.checks.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << run.checks.attempted()
      << ", \"failed\": " << run.checks.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << jsonString(name) << ": {\"value\": "
        << (std::isfinite(metric.value) ? metric.value : 0.0)
        << ", \"unit\": " << jsonString(metric.unit) << "}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int usage() {
  std::cerr << "usage: omt_perfbench --workload <build-2d|build-3d|service-zipf|"
               "dataplane-lossy> --seed <n> --seconds <s> --trace <0|1> "
               "[--commit <id>] [--source-digest <hex>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workloadName, commit = "unknown", digest = "unknown";
  Run run;
  double seconds = 10.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workloadName = value;
    else if (flag == "--seed") run.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") run.trace = value == "1";
    else if (flag == "--commit") commit = value;
    else if (flag == "--source-digest") digest = value;
    else return usage();
  }
  if (argc % 2 != 1 || !(seconds > 0.0)) return usage();
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return workloadName == w.name;
  });
  if (it == all.end()) return usage();
  const Workload& w = *it;

  const bool defaults = togglesAtDefaults();
  printEnvironment(w, commit, digest, defaults);
  if (!defaults) {
    std::cerr << "perfbench: OMT_* toggles are not at their defaults; refusing "
                 "to measure\n";
    return 3;
  }

  BuildBench build(run, w.build);
  ServiceBench service(run, w.service);
  DataplaneBench dataplane(run, w.dataplane);
  PathBench* own = nullptr;
  std::vector<PathBench*> probes;
  const std::pair<PathKind, PathBench*> paths[] = {
      {PathKind::kBuild, &build},
      {PathKind::kService, &service},
      {PathKind::kDataplane, &dataplane}};
  for (const auto& [kind, path] : paths) {
    if (kind == w.own) own = path;
    else probes.push_back(path);
  }

  try {
    // One-time: the process-wide worker pool starts on first use.
    const auto pool0 = Clock::now();
    omt::globalPool();
    run.setupSeconds += secondsSince(pool0);
    for (PathBench* probe : probes) run.setupSeconds += probe->setup();
    run.setupSeconds += own->setup();
    // In a timed run the probes' steps follow the own path's progress
    // (always the probe furthest behind), so each probe samples the whole
    // run rather than one spell of the shared machine. A traced run spends
    // half the seconds untraced, half traced; it finishes the probes first,
    // so that the own path's untraced and traced steps both run back to back
    // (bench.trace_overhead_share compares them). Only the own path's steps
    // count toward the seconds.
    const auto progress = [](const PathBench* p) {
      return static_cast<double>(p->stepsDone()) / p->minSteps();
    };
    const auto probesTo = [&](double target) {
      for (;;) {
        PathBench* behind = *std::min_element(
            probes.begin(), probes.end(),
            [&](auto* a, auto* b) { return progress(a) < progress(b); });
        if (progress(behind) >= target) return;
        behind->step();
      }
    };
    if (run.trace) probesTo(1.0);
    const double measured = run.trace ? seconds / 2 : seconds;
    double ownSeconds = 0.0;
    while (own->stepsDone() < own->minSteps() || ownSeconds < measured) {
      const auto t0 = Clock::now();
      own->step();
      ownSeconds += secondsSince(t0);
      probesTo(std::min({progress(own), ownSeconds / measured, 1.0}));
    }
    probesTo(1.0);
    own->finish(run.trace ? seconds / 2 : 0.0);
    for (PathBench* probe : probes) probe->finish(0.0);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  run.e2e("setup_s", run.setupSeconds, "s");
  run.e2e("peak_rss_mb", peakRssMb(), "MB");
  std::cout << "checks: attempted " << run.checks.attempted() << ", failed "
            << run.checks.failed() << ", failed_share "
            << ratio(static_cast<double>(run.checks.failed()),
                     static_cast<double>(run.checks.attempted()))
            << (run.checks.firstFailure().empty()
                    ? std::string()
                    : ", first failure: " + run.checks.firstFailure())
            << "\n";
  for (const auto& [name, metric] : run.endToEnd) {
    std::cout << "e2e " << name << " = " << metric.value << " " << metric.unit;
    if (metric.samples > 0) std::cout << " (" << metric.samples << " samples)";
    std::cout << "\n";
  }
  printResult(run, defaults);
  return 0;
}
