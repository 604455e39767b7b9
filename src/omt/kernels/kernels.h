// Batched coordinate-kernel layer.
//
// The kernels subsystem makes the point -> cell pipeline a batched,
// cache-friendly kernel instead of per-point scalar calls:
//   * sin_power_table.h — table-seeded sin^k quantile inversion (the
//     per-point Newton solve drops from a cold full-range start to ~2-3
//     steps inside a precomputed bracket);
//   * polar_batch.h — SoA batch transforms (polarOfPointsBatch,
//     ringCellBatch, angularCubeBatch) and the fused polarClassifyBatch
//     over contiguous per-dimension lanes.
//
// Everything here is an implementation strategy, not a semantic change:
// every kernel returns doubles bitwise identical to the scalar geometry /
// grid functions (toPolar, PolarGrid::ringOf / cellOf, fromPolar,
// sinPowerQuantile) — the tables store the exact doubles the cold path
// computes, and the batch loops replay the scalar operation sequences. The
// library always takes the kernel path; the scalar functions remain as the
// exact oracle that kernels_test.cc, grid_assignment_test.cc and the pinned
// golden tree fingerprints hold the kernels to.
#pragma once

namespace omt::kernels {

/// Whether call sites take the batched kernel path: always. Benchmark
/// environment reports print it.
inline bool enabled() { return true; }

}  // namespace omt::kernels
