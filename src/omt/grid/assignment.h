// Point-to-cell assignment and maximal ring-count selection (grid
// property 3 of Section III-A).
//
// Given the host points and the source, this chooses the largest k such
// that every cell of rings 1..k-1 contains at least one point (cells of the
// outermost ring k may be empty), then groups point indices by cell. The
// selection exploits the grid's self-similarity: a point's (ring, cell)
// under k rings is (ring - 1, cell >> 1) under k - 1 rings (clamped at ring
// 0), so one O(n) classification pass at the largest candidate k serves all
// candidates, and every candidate's occupancy check comes from one
// bottom-up OR-fold over the kMax occupancy bitmap (O(heapIds) total).
//
// All O(n) passes (polar conversion, classification, the counting-sort CSR
// build) run chunked on the shared thread pool; the result is identical for
// every worker count (see docs/performance.md for the determinism
// contract).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "omt/common/types.h"
#include "omt/geometry/angular_cube.h"
#include "omt/geometry/point.h"
#include "omt/grid/polar_grid.h"

namespace omt {

/// The PolarCoords a packed polar row of dimension d holds (`row` points
/// at its d doubles: the radius, then the d - 1 cube coordinates).
inline PolarCoords unpackPolarRow(const double* row, int d) {
  PolarCoords polar;
  polar.radius = row[0];
  polar.dim = d;
  for (int j = 0; j < d - 1; ++j)
    polar.cube[static_cast<std::size_t>(j)] = row[j + 1];
  return polar;
}

struct GridAssignment {
  PolarGrid grid;  ///< chosen grid (k maximal, outer radius = max distance)

  /// Per-point ring index in [0, grid.rings()].
  std::vector<std::int32_t> ringOfPoint;
  /// Per-point cell index within its ring.
  std::vector<std::uint64_t> cellOfPoint;

  /// Per-point polar coordinates about the source — the expensive part of
  /// classification (incomplete sin^k integral inversions in 3D), kept so
  /// downstream stages (tree wiring, bisection) never convert twice.
  /// Packed rows of d = grid.dim() doubles: row i is polarRows[i*d ..
  /// (i+1)*d), the radius followed by the d - 1 angular-cube coordinates.
  /// Allocated without value-initialisation: the parallel polar pass writes
  /// every row, so it is also the first touch of the memory. Read it
  /// through radiusOf / polarOf / polarData.
  std::unique_ptr<double[]> polarRows;

  /// CSR of point indices grouped by cell heap id:
  /// members of heap id h are cellMembers[cellStart[h] .. cellStart[h+1]),
  /// in increasing point index.
  std::vector<std::int64_t> cellStart;
  std::vector<NodeId> cellMembers;

  /// Number of non-empty cells, cached by assignToGrid (-1 = not cached;
  /// occupiedCells() then derives it from the CSR bounds).
  std::int64_t occupiedCellCount = -1;

  std::span<const NodeId> membersOf(std::uint64_t heapId) const {
    const auto begin = cellStart[static_cast<std::size_t>(heapId)];
    const auto end = cellStart[static_cast<std::size_t>(heapId) + 1];
    return {cellMembers.data() + begin, static_cast<std::size_t>(end - begin)};
  }

  /// Radius of point i about the source; equals distance(points[i], origin)
  /// exactly.
  double radiusOf(NodeId i) const {
    return polarRows[static_cast<std::size_t>(i) *
                     static_cast<std::size_t>(grid.dim())];
  }

  /// Point i's row as PolarCoords: bitwise equal to toPolar(points[i],
  /// origin), including dim and the zeroed unused cube axes.
  PolarCoords polarOf(NodeId i) const {
    const int d = grid.dim();
    return unpackPolarRow(polarRows.get() + static_cast<std::size_t>(i) *
                                                static_cast<std::size_t>(d),
                          d);
  }

  /// All packed rows: n * d doubles.
  std::span<const double> polarData() const {
    return {polarRows.get(),
            ringOfPoint.size() * static_cast<std::size_t>(grid.dim())};
  }

  /// Number of cells (over all rings, including the outermost) that contain
  /// at least one point. O(1) when cached by assignToGrid; otherwise
  /// derived from the CSR bounds using grid property 3 (rings 1..k-1 are
  /// fully occupied by construction), which leaves only ring 0 and the
  /// outermost ring to inspect.
  std::int64_t occupiedCells() const;
};

struct AssignmentOptions {
  /// Hard cap on k; the default never binds in practice.
  int maxRings = PolarGrid::kMaxRings;
  /// Optional fixed outer radius; by default the max source-to-point
  /// distance is used. Useful when the region's radius is known a priori.
  std::optional<double> outerRadius = std::nullopt;
  /// Worker threads for the O(n) passes; 0 = auto (OMT_THREADS environment
  /// variable, else half the hardware threads). The result is byte-for-byte
  /// independent of this value.
  int workers = 0;
};

/// Assign `points` to the maximal-k grid centered at points[source].
/// Requires 1 <= n <= 2^31 - 1 (per-cell member counts are int32), all
/// points of equal dimension >= 2, and every point within the outer radius.
/// Degenerate sets (all points at the source) yield a k = 1 grid with
/// everything in ring 0.
GridAssignment assignToGrid(std::span<const Point> points, NodeId source,
                            const AssignmentOptions& options = {});

}  // namespace omt
