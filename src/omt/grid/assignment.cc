#include "omt/grid/assignment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "omt/common/error.h"
#include "omt/kernels/polar_batch.h"
#include "omt/obs/metrics.h"
#include "omt/obs/trace.h"
#include "omt/parallel/parallel_for.h"
#include "omt/parallel/scratch_arena.h"

namespace omt {
namespace {

/// Deterministic per-build facts: one add per logical item (point, build),
/// one set per chosen grid — identical for every worker count.
struct GridMetrics {
  obs::Counter& assignments;
  obs::Counter& points;
  obs::Gauge& rings;
  obs::Gauge& occupiedCells;
};

GridMetrics& gridMetrics() {
  auto& registry = obs::MetricsRegistry::global();
  static GridMetrics metrics{
      registry.counter("omt_grid_assignments_total"),
      registry.counter("omt_grid_points_total"),
      registry.gauge("omt_grid_rings"),
      registry.gauge("omt_grid_occupied_cells")};
  return metrics;
}

/// Largest candidate ring count for n points: property 3 needs all 2^(k-1)
/// cells of ring k-1 occupied, so 2^(k-1) <= n - 1 is necessary.
int candidateRings(std::int64_t n, int cap) {
  int k = 1;
  while (k < cap && (std::int64_t{1} << k) <= n) ++k;
  return k;
}

/// Largest k (= kMax - delta) whose rings 1..k-1 are fully occupied, from
/// the occupancy bitmap at kMax. Under k = kMax - delta, ring j (j >= 1)
/// collects the points whose kMax-ring is j + delta, in cell cellMax >>
/// delta; so ring j is fully occupied iff every ring-j cell's depth-delta
/// descendant block in ring j + delta contains an occupied cell. Those
/// block ORs are exactly a bottom-up heap fold: S_0 = occ, S_{delta+1}(h) =
/// S_delta(2h) | S_delta(2h+1), and ring j is full under delta iff
/// S_delta is 1 across ring j. One fold level costs half the previous one,
/// so the whole selection is O(heapIds) — the old per-candidate block scan
/// was O(2^kMax * kMax) when every candidate failed near the end.
int selectRings(std::span<std::uint8_t> fold, int kMax) {
  // ringFull[delta * kMax + (j - 1)] for j in 1..kMax - delta - 1.
  std::vector<std::uint8_t> ringFull(
      static_cast<std::size_t>(kMax) * static_cast<std::size_t>(kMax), 0);
  for (int delta = 0; delta <= kMax - 1; ++delta) {
    for (int j = 1; j <= kMax - delta - 1; ++j) {
      std::uint8_t all = 1;
      const std::uint64_t ringBegin = std::uint64_t{1} << j;
      for (std::uint64_t h = ringBegin; h < 2 * ringBegin; ++h) all &= fold[h];
      ringFull[static_cast<std::size_t>(delta) * static_cast<std::size_t>(kMax) +
               static_cast<std::size_t>(j - 1)] = all;
    }
    // Fold one level: S_{delta+1} over rings 0..kMax-delta-1. Ascending h
    // reads children 2h, 2h+1 before they are overwritten (2h > h).
    const std::uint64_t next = std::uint64_t{1} << (kMax - delta);
    for (std::uint64_t h = 1; h < next; ++h) fold[h] = fold[2 * h] | fold[2 * h + 1];
  }
  for (int delta = 0; delta <= kMax - 1; ++delta) {
    bool valid = true;
    for (int j = 1; j <= kMax - delta - 1 && valid; ++j) {
      valid = ringFull[static_cast<std::size_t>(delta) *
                           static_cast<std::size_t>(kMax) +
                       static_cast<std::size_t>(j - 1)] != 0;
    }
    if (valid) return kMax - delta;
  }
  return 1;
}

/// Per-worker ClassifyTable cache: rebuilt only when the grid key changes,
/// so the bisection driver's repeated builds (same dim / ring count /
/// radius family) reuse each worker's table instead of re-deriving the
/// split layout per build. Thread-local so workers never share a cache
/// line of hot per-point constants.
const kernels::ClassifyTable& workerClassifyTable(
    int dim, int rings, double outerRadius, std::span<const double> radii) {
  struct Cache {
    kernels::ClassifyTable table;
    bool valid = false;
  };
  thread_local Cache cache;
  if (!cache.valid || cache.table.dim != dim || cache.table.rings != rings ||
      cache.table.outerRadius != outerRadius) {
    cache.table = kernels::makeClassifyTable(dim, rings, outerRadius, radii);
    cache.valid = true;
  }
  return cache.table;
}

}  // namespace

std::int64_t GridAssignment::occupiedCells() const {
  if (occupiedCellCount >= 0) return occupiedCellCount;
  // Property 3 of the chosen grid: rings 1..k-1 are fully occupied, so only
  // ring 0 and the outermost ring need their CSR bounds inspected.
  const int k = grid.rings();
  std::int64_t occupied = cellStart[2] > cellStart[1] ? 1 : 0;  // ring 0
  occupied += (std::int64_t{1} << k) - 2;                       // rings 1..k-1
  const std::uint64_t outerBegin = std::uint64_t{1} << k;
  for (std::uint64_t h = outerBegin; h < 2 * outerBegin; ++h) {
    if (cellStart[static_cast<std::size_t>(h) + 1] >
        cellStart[static_cast<std::size_t>(h)])
      ++occupied;
  }
  return occupied;
}

GridAssignment assignToGrid(std::span<const Point> points, NodeId source,
                            const AssignmentOptions& options) {
  const auto n = static_cast<std::int64_t>(points.size());
  OMT_CHECK(n >= 1, "empty point set");
  OMT_CHECK(source >= 0 && source < n, "source index out of range");
  const int d = points.front().dim();
  OMT_CHECK(d >= 2 && d <= kMaxDim, "dimension out of range");
  OMT_CHECK(options.maxRings >= 1 && options.maxRings <= PolarGrid::kMaxRings,
            "ring cap out of range");
  const int workers = resolveWorkers(options.workers);
  const auto slots = static_cast<std::size_t>(workers);

  const obs::TraceSpan span("assign_to_grid", "grid");
  gridMetrics().assignments.add();
  gridMetrics().points.add(n);

  const Point& origin = points[static_cast<std::size_t>(source)];
  // Per-cell member counts are int32: a count is at most n.
  OMT_CHECK(n <= std::numeric_limits<std::int32_t>::max(),
            "assignToGrid supports at most 2^31 - 1 points");

  // Build-lifetime scratch: classification intermediates come from the
  // caller thread's arena, so repeated builds stop reallocating them
  // (workers only write into disjoint slices of these spans).
  ScratchArena& arena = workerArena();
  ScratchArena::Scope arenaScope(arena);
  const auto un = static_cast<std::size_t>(n);

  // Packed polar rows (stride d), deliberately not value-initialised: the
  // fused pass below writes every row, so the first touch of these pages
  // happens on the parallel workers, not in a serial fill.
  const auto ud = static_cast<std::size_t>(d);
  auto polar = std::make_unique_for_overwrite<double[]>(un * ud);
  std::vector<double> slotMax(slots, 0.0);
  double maxRadius = 0.0;
  double outerRadius = 0.0;

  // Outer radius R. The fused pass classifies during the polar walk, which
  // needs the ring radii — so when R is not supplied a radius-only prepass
  // (one max reduction, no stores) finds it instead of spilling full polar
  // lanes.
  obs::TraceSpan polarSpan("polar_pass", "grid", span.id());
  if (options.outerRadius.has_value()) {
    outerRadius = *options.outerRadius;
  } else {
    parallelForChunks(
        0, n, workers, [&](std::int64_t lo, std::int64_t hi, int slot) {
          const double chunkMax = kernels::radiusMaxBatch(
              points.subspan(static_cast<std::size_t>(lo),
                             static_cast<std::size_t>(hi - lo)),
              origin);
          auto& localMax = slotMax[static_cast<std::size_t>(slot)];
          localMax = std::max(localMax, chunkMax);
        });
    for (const double m : slotMax) outerRadius = std::max(outerRadius, m);
    std::fill(slotMax.begin(), slotMax.end(), 0.0);
  }
  if (outerRadius <= 0.0) outerRadius = 1.0;  // all points at the source
  polarSpan.end();

  // Classify every point at the largest candidate k. The fused pass does
  // polar conversion, ring/cell classification, and per-cell counting in
  // ONE walk over the points (cache-resident blocks inside
  // polarClassifyBatch; the count array serves both ring selection and the
  // CSR bounds — integer sums are order-independent, so relaxed atomics
  // keep the result identical for any worker count).
  const int kMax = candidateRings(n, options.maxRings);
  const PolarGrid gridMax(d, kMax, outerRadius);
  const std::size_t heapIdsMax = gridMax.heapIdCount();
  std::span<std::int32_t> ringMax = arena.alloc<std::int32_t>(un);
  std::span<std::uint64_t> cellMax = arena.alloc<std::uint64_t>(un);
  std::span<std::uint8_t> occMax = arena.alloc<std::uint8_t>(heapIdsMax);
  std::span<std::int32_t> countMax = arena.alloc<std::int32_t>(heapIdsMax);
  obs::TraceSpan classifySpan("classification", "grid", span.id());
  std::memset(countMax.data(), 0, countMax.size() * sizeof(std::int32_t));
  std::array<double, PolarGrid::kMaxRings + 1> radii{};
  for (int i = 0; i <= kMax; ++i)
    radii[static_cast<std::size_t>(i)] = gridMax.ringRadius(i);
  const std::span<const double> radiiSpan(radii.data(),
                                          static_cast<std::size_t>(kMax) + 1);
  parallelForChunks(
      0, n, workers, [&](std::int64_t lo, std::int64_t hi, int slot) {
        const kernels::ClassifyTable& table =
            workerClassifyTable(d, kMax, outerRadius, radiiSpan);
        const auto ulo = static_cast<std::size_t>(lo);
        const auto len = static_cast<std::size_t>(hi - lo);
        const double chunkMax = kernels::polarClassifyBatch(
            points.subspan(ulo, len), origin, table,
            std::span<double>(polar.get() + ulo * ud, len * ud),
            ringMax.subspan(ulo, len), cellMax.subspan(ulo, len));
        auto& localMax = slotMax[static_cast<std::size_t>(slot)];
        localMax = std::max(localMax, chunkMax);
        for (std::size_t i = ulo; i < ulo + len; ++i) {
          // The heap id is two cheap integer ops, so recompute it for the
          // lookahead and prefetch the count entry — the only random
          // access in this loop.
          if (i + 16 < ulo + len) {
            __builtin_prefetch(
                &countMax[static_cast<std::size_t>(
                    gridMax.heapId(ringMax[i + 16], cellMax[i + 16]))],
                1);
          }
          const std::uint64_t h = gridMax.heapId(ringMax[i], cellMax[i]);
          std::atomic_ref<std::int32_t>(countMax[static_cast<std::size_t>(h)])
              .fetch_add(1, std::memory_order_relaxed);
        }
      });
  for (const double m : slotMax) maxRadius = std::max(maxRadius, m);
  // Occupancy for ring selection, derived from the counts (selectRings
  // folds its input destructively, so it gets its own byte array).
  parallelForChunks(0, static_cast<std::int64_t>(heapIdsMax), workers,
                    [&](std::int64_t lo, std::int64_t hi, int) {
                      for (std::int64_t h = lo; h < hi; ++h) {
                        const auto hs = static_cast<std::size_t>(h);
                        occMax[hs] = countMax[hs] != 0 ? 1 : 0;
                      }
                    });
  OMT_CHECK(maxRadius <= outerRadius * (1.0 + 1e-9),
            "a point lies outside the requested outer radius");

  const int chosen = selectRings(occMax, kMax);
  classifySpan.end();
  gridMetrics().rings.set(static_cast<double>(chosen));

  // Final assignment under the chosen k.
  const int delta = kMax - chosen;
  GridAssignment out{.grid = PolarGrid(d, chosen, outerRadius),
                     .ringOfPoint = {},
                     .cellOfPoint = {},
                     .polarRows = {},
                     .cellStart = {},
                     .cellMembers = {},
                     .occupiedCellCount = -1};
  out.ringOfPoint.resize(points.size());
  out.cellOfPoint.resize(points.size());

  // Counting sort into the CSR. The per-cell counts at kMax are already
  // known, and a chosen-k cell's members are exactly the points in its
  // depth-delta descendant block at kMax — so the chosen counts fall out of
  // delta levels of the same bottom-up heap fold selectRings uses
  // (ascending h reads children 2h, 2h+1 before overwriting them; integer
  // sums, so the result equals a per-point count to the bit). The fold
  // overwrites the sub-delta rings' own counts on its way up, so the ring-0
  // total (kMax-rings 0..delta collapse into chosen ring 0) is recovered by
  // subtraction from n.
  const obs::TraceSpan csrSpan("csr_build", "grid", span.id());
  const std::size_t heapIds = out.grid.heapIdCount();
  out.cellStart.assign(heapIds + 1, 0);
  for (int lvl = 0; lvl < delta; ++lvl) {
    const std::uint64_t next = std::uint64_t{1} << (kMax - lvl);
    for (std::uint64_t h = 1; h < next; ++h) {
      countMax[static_cast<std::size_t>(h)] =
          countMax[static_cast<std::size_t>(2 * h)] +
          countMax[static_cast<std::size_t>(2 * h + 1)];
    }
  }
  std::int64_t outerTotal = 0;
  for (std::size_t h = 2; h < heapIds; ++h) {
    out.cellStart[h + 1] = countMax[h];
    outerTotal += countMax[h];
  }
  out.cellStart[2] = n - outerTotal;  // ring 0 lives at heap id 1
  std::int64_t occupied = 0;
  for (std::size_t h = 0; h < heapIds; ++h) {
    if (out.cellStart[h + 1] > 0) ++occupied;
    out.cellStart[h + 1] += out.cellStart[h];
  }
  out.occupiedCellCount = occupied;
  gridMetrics().occupiedCells.set(static_cast<double>(occupied));

  // Fused scatter: materialise the chosen-k ring/cell of every point and
  // place it through its cell's atomic cursor in the same walk. The cursor
  // entry is the one random access, so it gets a software prefetch from
  // the cheap-to-recompute lookahead heap id.
  out.cellMembers.resize(points.size());
  std::span<std::int64_t> cursor = arena.alloc<std::int64_t>(heapIds);
  std::copy(out.cellStart.begin(), out.cellStart.end() - 1, cursor.begin());
  parallelForChunks(0, n, workers, [&](std::int64_t lo, std::int64_t hi, int) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (i + 16 < hi) {
        const auto ahead = static_cast<std::size_t>(i + 16);
        const int ringAhead = std::max(0, ringMax[ahead] - delta);
        const std::uint64_t cellAhead =
            ringAhead == 0 ? 0 : (cellMax[ahead] >> delta);
        __builtin_prefetch(
            &cursor[static_cast<std::size_t>(
                out.grid.heapId(ringAhead, cellAhead))],
            1);
      }
      const int ring = std::max(0, ringMax[idx] - delta);
      const std::uint64_t cell = ring == 0 ? 0 : (cellMax[idx] >> delta);
      out.ringOfPoint[idx] = ring;
      out.cellOfPoint[idx] = cell;
      const std::uint64_t h = out.grid.heapId(ring, cell);
      const std::int64_t pos =
          std::atomic_ref<std::int64_t>(cursor[static_cast<std::size_t>(h)])
              .fetch_add(1, std::memory_order_relaxed);
      out.cellMembers[static_cast<std::size_t>(pos)] = static_cast<NodeId>(i);
    }
  });
  parallelForChunks(
      0, static_cast<std::int64_t>(heapIds), workers,
      [&](std::int64_t lo, std::int64_t hi, int) {
        for (std::int64_t h = lo; h < hi; ++h) {
          const auto hs = static_cast<std::size_t>(h);
          std::sort(out.cellMembers.begin() + out.cellStart[hs],
                    out.cellMembers.begin() + out.cellStart[hs + 1]);
        }
      });

  out.polarRows = std::move(polar);
  return out;
}

}  // namespace omt
