#include "omt/bisection/bisection.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "omt/common/error.h"
#include "omt/geometry/bounding.h"
#include "omt/kernels/polar_batch.h"
#include "omt/obs/metrics.h"
#include "omt/obs/trace.h"
#include "omt/parallel/parallel_for.h"
#include "omt/parallel/scratch_arena.h"

namespace omt {

int relayLayers(int dim, int maxChildren) {
  OMT_CHECK(dim >= 2 && dim <= kMaxDim, "dimension out of range");
  OMT_CHECK(maxChildren >= 2, "fan-out must be at least 2");
  const std::uint64_t target = std::uint64_t{1} << dim;  // 2^d sub-segments
  int layers = 0;
  std::uint64_t reach = 1;
  while (reach < target) {
    reach *= static_cast<std::uint64_t>(maxChildren);
    ++layers;
  }
  return layers;
}

namespace {

struct Member {
  NodeId node = kNoNode;
  PolarCoords polar;
};

struct Job {
  NodeId root = kNoNode;
  double rootRadius = 0.0;
  RingSegment segment;
  std::vector<Member> members;
  int depth = 0;
};

/// Past this depth (or below this segment extent) the point set is
/// effectively degenerate (coincident points); fall back to a balanced
/// m-ary fan, which is feasible for any degree cap and adds only
/// zero-length (or near-zero) hops.
constexpr int kMaxDepth = 192;

void attachFan(MulticastTree& tree, NodeId root,
               std::span<const Member> members, int m) {
  for (std::size_t i = 0; i < members.size(); ++i) {
    const NodeId parent =
        i == 0 ? root
               : members[(i - 1) / static_cast<std::size_t>(m)].node;
    tree.attach(members[i].node, parent, EdgeKind::kLocal);
  }
}

/// Remove and return the member whose radius is closest to `radius` from
/// the bucket set; returns nullopt-like Member with node == kNoNode when
/// every listed bucket is empty.
Member extractClosestRadius(std::vector<std::vector<Member>>& buckets,
                            std::span<const int> bucketIds, double radius) {
  int bestBucket = -1;
  std::size_t bestPos = 0;
  double bestDist = kInf;
  NodeId bestNode = kNoNode;
  for (const int b : bucketIds) {
    const auto& bucket = buckets[static_cast<std::size_t>(b)];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const double dist = std::abs(bucket[i].polar.radius - radius);
      // Tie-break on node id for determinism.
      if (dist < bestDist ||
          (dist == bestDist && bucket[i].node < bestNode)) {
        bestDist = dist;
        bestBucket = b;
        bestPos = i;
        bestNode = bucket[i].node;
      }
    }
  }
  if (bestBucket < 0) return {};
  auto& bucket = buckets[static_cast<std::size_t>(bestBucket)];
  Member out = bucket[bestPos];
  bucket[bestPos] = bucket.back();
  bucket.pop_back();
  return out;
}

/// Connect the given buckets under `root`: directly when they fit the
/// fan-out, through a cascade of relay points otherwise (the paper's
/// out-degree-2 construction, generalised to m-ary relays). Sub-segment
/// jobs for the next recursion level are pushed onto `stack`.
void connectBuckets(MulticastTree& tree, std::vector<Job>& stack,
                    std::vector<std::vector<Member>>& buckets,
                    std::span<const int> bucketIds, NodeId root,
                    double rootRadius, const RingSegment& segment, int m,
                    int depth) {
  if (static_cast<int>(bucketIds.size()) <= m) {
    for (const int b : bucketIds) {
      auto& bucket = buckets[static_cast<std::size_t>(b)];
      if (bucket.empty()) continue;  // drained by relay extraction
      // Representative: radius closest to the local source's radius.
      std::size_t repPos = 0;
      for (std::size_t i = 1; i < bucket.size(); ++i) {
        const double cur = std::abs(bucket[i].polar.radius - rootRadius);
        const double best = std::abs(bucket[repPos].polar.radius - rootRadius);
        if (cur < best || (cur == best && bucket[i].node < bucket[repPos].node))
          repPos = i;
      }
      const Member rep = bucket[repPos];
      bucket[repPos] = bucket.back();
      bucket.pop_back();
      tree.attach(rep.node, root, EdgeKind::kLocal);
      stack.push_back(Job{rep.node, rep.polar.radius, segment.subsegment(b),
                          std::move(bucket), depth + 1});
      bucket = {};
    }
    return;
  }

  // More buckets than fan-out: split them into m balanced contiguous groups
  // and delegate each group to a relay chosen (like the paper's
  // out-degree-2 version) with radius closest to the local source.
  const std::size_t total = bucketIds.size();
  const std::size_t groups = static_cast<std::size_t>(m);
  std::size_t begin = 0;
  for (std::size_t g = 0; g < groups && begin < total; ++g) {
    const std::size_t size = (total - begin + (groups - g) - 1) / (groups - g);
    const std::span<const int> group = bucketIds.subspan(begin, size);
    begin += size;
    const Member relay = extractClosestRadius(buckets, group, rootRadius);
    if (relay.node == kNoNode) continue;  // nothing left in this group
    tree.attach(relay.node, root, EdgeKind::kLocal);
    connectBuckets(tree, stack, buckets, group, relay.node,
                   relay.polar.radius, segment, m, depth);
  }
}

void processJob(MulticastTree& tree, std::vector<Job>& stack, Job job,
                int m) {
  if (job.members.empty()) return;
  if (static_cast<int>(job.members.size()) <= m) {
    for (const Member& member : job.members)
      tree.attach(member.node, job.root, EdgeKind::kLocal);
    return;
  }
  const double scale = 1.0 + job.segment.radial().hi;
  if (job.depth > kMaxDepth || job.segment.extentMeasure() < 1e-12 * scale) {
    attachFan(tree, job.root, job.members, m);
    return;
  }

  std::vector<std::vector<Member>> buckets(
      static_cast<std::size_t>(job.segment.subsegmentCount()));
  for (Member& member : job.members) {
    buckets[static_cast<std::size_t>(job.segment.subsegmentIndex(member.polar))]
        .push_back(member);
  }
  std::vector<int> nonEmpty;
  nonEmpty.reserve(buckets.size());
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (!buckets[b].empty()) nonEmpty.push_back(static_cast<int>(b));
  }
  connectBuckets(tree, stack, buckets, nonEmpty, job.root, job.rootRadius,
                 job.segment, m, job.depth);
}

}  // namespace

void bisectConnect(MulticastTree& tree, std::span<const NodeId> members,
                   std::span<const PolarCoords> memberPolar, NodeId rootNode,
                   double rootRadius, const RingSegment& segment,
                   int maxChildren) {
  OMT_CHECK(maxChildren >= 2, "fan-out must be at least 2");
  OMT_CHECK(members.size() == memberPolar.size(),
            "one polar coordinate per member required");
  if (members.empty()) return;

  // One add per invocation/member keeps these deterministic under the
  // parallel per-cell callers. No span here: a span per cell would swamp
  // the trace at production sizes.
  {
    auto& registry = obs::MetricsRegistry::global();
    static obs::Counter& connects =
        registry.counter("omt_bisection_connects_total");
    static obs::Counter& connected =
        registry.counter("omt_bisection_members_total");
    connects.add();
    connected.add(static_cast<std::int64_t>(members.size()));
  }

  std::vector<Member> topMembers;
  topMembers.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    OMT_CHECK(segment.contains(memberPolar[i], 1e-9 * (1.0 + segment.radial().hi)),
              "member outside the bisection segment");
    topMembers.push_back(Member{members[i], memberPolar[i]});
  }

  std::vector<Job> stack;
  stack.push_back(Job{rootNode, rootRadius, segment, std::move(topMembers), 0});
  while (!stack.empty()) {
    Job job = std::move(stack.back());
    stack.pop_back();
    processJob(tree, stack, std::move(job), maxChildren);
  }
}

BisectionTreeResult buildBisectionTree(std::span<const Point> points,
                                       NodeId source,
                                       const BisectionTreeOptions& options) {
  const auto n = static_cast<NodeId>(points.size());
  OMT_CHECK(n >= 1, "empty point set");
  OMT_CHECK(source >= 0 && source < n, "source index out of range");
  OMT_CHECK(options.maxOutDegree >= 2, "out-degree cap must be at least 2");
  const int d = points.front().dim();

  const obs::TraceSpan span("build_bisection_tree", "bisection");
  BisectionTreeResult result{.tree = MulticastTree(n, source),
                             .ringCenter = Point(d)};
  result.ringCenter = farRingCenter(points);
  const RingSegment segment = tightSegment(points, result.ringCenter);

  std::vector<PolarCoords> polar(points.size());
  const int workers = resolveWorkers(options.workers);
  // Batched conversion produces the same doubles as per-point toPolar.
  parallelForChunks(0, n, workers,
                    [&](std::int64_t lo, std::int64_t hi, int) {
                      ScratchArena& arena = workerArena();
                      ScratchArena::Scope scope(arena);
                      const auto ulo = static_cast<std::size_t>(lo);
                      const auto len = static_cast<std::size_t>(hi - lo);
                      kernels::PolarLanes lanes;
                      lanes.radius = arena.alloc<double>(len);
                      for (int j = 0; j < d - 1; ++j)
                        lanes.cube[static_cast<std::size_t>(j)] =
                            arena.alloc<double>(len);
                      kernels::polarOfPointsBatch(
                          points.subspan(ulo, len), result.ringCenter, lanes,
                          std::span<PolarCoords>(polar).subspan(ulo, len));
                    });

  std::vector<NodeId> members;
  std::vector<PolarCoords> memberPolar;
  members.reserve(points.size() - 1);
  memberPolar.reserve(points.size() - 1);
  for (NodeId i = 0; i < n; ++i) {
    if (i == source) continue;
    members.push_back(i);
    memberPolar.push_back(polar[static_cast<std::size_t>(i)]);
  }

  const double q = polar[static_cast<std::size_t>(source)].radius;
  bisectConnect(result.tree, members, memberPolar, source, q, segment,
                options.maxOutDegree);
  result.tree.finalize();

  const double r = segment.radial().lo;
  const double bigR = segment.radial().hi;
  const double a = segment.angleSpan();
  result.segmentInnerRadius = r;
  result.segmentOuterRadius = bigR;
  result.segmentAngle = a;
  result.sourceRadius = q;
  const double radialTerm = std::max(bigR - q, q - r);
  result.pathBound =
      radialTerm + 2.0 * relayLayers(d, options.maxOutDegree) * bigR * a;
  result.lowerBound =
      std::max({radialTerm, r * std::sin(std::min(a, 1.0))});
  return result;
}

}  // namespace omt
