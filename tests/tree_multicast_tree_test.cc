#include "omt/tree/multicast_tree.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "omt/random/rng.h"

namespace omt {
namespace {

TEST(MulticastTreeTest, SingleNodeTree) {
  MulticastTree tree(1, 0);
  tree.finalize();
  EXPECT_EQ(tree.size(), 1);
  EXPECT_EQ(tree.root(), 0);
  EXPECT_TRUE(tree.childrenOf(0).empty());
  EXPECT_EQ(tree.bfsOrder(), std::vector<NodeId>{0});
}

TEST(MulticastTreeTest, AttachBuildsParentChildStructure) {
  MulticastTree tree(4, 0);
  tree.attach(1, 0, EdgeKind::kCore);
  tree.attach(2, 0, EdgeKind::kLocal);
  tree.attach(3, 1, EdgeKind::kLocal);
  tree.finalize();

  EXPECT_EQ(tree.parentOf(1), 0);
  EXPECT_EQ(tree.parentOf(2), 0);
  EXPECT_EQ(tree.parentOf(3), 1);
  EXPECT_EQ(tree.parentOf(0), kNoNode);
  EXPECT_EQ(tree.outDegree(0), 2);
  EXPECT_EQ(tree.outDegree(1), 1);
  EXPECT_EQ(tree.outDegree(3), 0);
  EXPECT_EQ(tree.edgeKindOf(1), EdgeKind::kCore);
  EXPECT_EQ(tree.edgeKindOf(2), EdgeKind::kLocal);

  const auto children0 = tree.childrenOf(0);
  EXPECT_EQ(std::vector<NodeId>(children0.begin(), children0.end()),
            (std::vector<NodeId>{1, 2}));
}

TEST(MulticastTreeTest, BfsOrderListsParentsBeforeChildren) {
  MulticastTree tree(6, 2);
  tree.attach(0, 2, EdgeKind::kLocal);
  tree.attach(1, 0, EdgeKind::kLocal);
  tree.attach(3, 1, EdgeKind::kLocal);
  tree.attach(4, 2, EdgeKind::kLocal);
  tree.attach(5, 4, EdgeKind::kLocal);
  tree.finalize();

  const auto& order = tree.bfsOrder();
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order.front(), 2);
  std::vector<int> position(6, -1);
  for (std::size_t i = 0; i < order.size(); ++i)
    position[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  for (NodeId v = 0; v < 6; ++v) {
    if (v == tree.root()) continue;
    EXPECT_LT(position[static_cast<std::size_t>(tree.parentOf(v))],
              position[static_cast<std::size_t>(v)]);
  }
}

TEST(MulticastTreeTest, AttachErrors) {
  MulticastTree tree(3, 0);
  EXPECT_THROW(tree.attach(0, 1, EdgeKind::kLocal), InvalidArgument);  // root
  EXPECT_THROW(tree.attach(1, 1, EdgeKind::kLocal), InvalidArgument);  // self
  tree.attach(1, 0, EdgeKind::kLocal);
  EXPECT_THROW(tree.attach(1, 0, EdgeKind::kLocal), InvalidArgument);  // twice
}

TEST(MulticastTreeTest, FinalizeRequiresAllAttached) {
  MulticastTree tree(3, 0);
  tree.attach(1, 0, EdgeKind::kLocal);
  EXPECT_THROW(tree.finalize(), InvalidArgument);
}

TEST(MulticastTreeTest, AccessorsRequireFinalize) {
  MulticastTree tree(2, 0);
  tree.attach(1, 0, EdgeKind::kLocal);
  EXPECT_FALSE(tree.finalized());
  EXPECT_THROW(tree.childrenOf(0), InvalidArgument);
  EXPECT_THROW(tree.bfsOrder(), InvalidArgument);
  tree.finalize();
  EXPECT_TRUE(tree.finalized());
  EXPECT_NO_THROW(tree.childrenOf(0));
}

TEST(MulticastTreeTest, EdgeKindOfRejectsRootAndUnattached) {
  MulticastTree tree(3, 0);
  tree.attach(1, 0, EdgeKind::kCore);
  EXPECT_THROW(tree.edgeKindOf(0), InvalidArgument);
  EXPECT_THROW(tree.edgeKindOf(2), InvalidArgument);
}

TEST(MulticastTreeTest, AttachedPredicate) {
  MulticastTree tree(3, 0);
  EXPECT_TRUE(tree.attached(0));
  EXPECT_FALSE(tree.attached(1));
  tree.attach(1, 0, EdgeKind::kLocal);
  EXPECT_TRUE(tree.attached(1));
}

TEST(MulticastTreeTest, ConstructionErrors) {
  EXPECT_THROW(MulticastTree(0, 0), InvalidArgument);
  EXPECT_THROW(MulticastTree(3, 3), InvalidArgument);
  EXPECT_THROW(MulticastTree(3, -1), InvalidArgument);
}

TEST(MulticastTreeTest, CycleAmongParentsYieldsShortBfs) {
  // 1 and 2 point at each other; finalize() must not hang and BFS misses
  // them (validation reports this as a cycle).
  MulticastTree tree(3, 0);
  tree.attach(1, 2, EdgeKind::kLocal);
  tree.attach(2, 1, EdgeKind::kLocal);
  tree.finalize();
  EXPECT_EQ(tree.bfsOrder().size(), 1u);
}

TEST(MulticastTreeTest, LargeFanOut) {
  const NodeId n = 1000;
  MulticastTree tree(n, 0);
  for (NodeId v = 1; v < n; ++v) tree.attach(v, 0, EdgeKind::kLocal);
  tree.finalize();
  EXPECT_EQ(tree.outDegree(0), n - 1);
  EXPECT_EQ(tree.childrenOf(0).size(), static_cast<std::size_t>(n - 1));
  EXPECT_EQ(tree.bfsOrder().size(), static_cast<std::size_t>(n));
}

// --- finalize(workers) against a serial reference ---------------------------

/// A tree given as its parent array (kNoNode at the root).
struct ParentArray {
  NodeId root = 0;
  std::vector<NodeId> parent;
};

/// Attach every non-root node of `shape` (in the order given) and return
/// the unfinalized tree.
MulticastTree attachAll(const ParentArray& shape) {
  const auto n = static_cast<NodeId>(shape.parent.size());
  MulticastTree tree(n, shape.root);
  for (NodeId v = 0; v < n; ++v) {
    if (v != shape.root)
      tree.attach(v, shape.parent[static_cast<std::size_t>(v)], EdgeKind::kLocal);
  }
  return tree;
}

/// Serial reference: ascending child lists and a queue-walk BFS.
struct Reference {
  std::vector<std::vector<NodeId>> children;
  std::vector<NodeId> bfs;
};

Reference serialReference(const ParentArray& shape) {
  const std::size_t n = shape.parent.size();
  Reference ref;
  ref.children.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (static_cast<NodeId>(v) == shape.root) continue;
    ref.children[static_cast<std::size_t>(shape.parent[v])].push_back(
        static_cast<NodeId>(v));
  }
  std::deque<NodeId> queue{shape.root};
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    ref.bfs.push_back(v);
    for (const NodeId c : ref.children[static_cast<std::size_t>(v)])
      queue.push_back(c);
  }
  return ref;
}

void expectMatches(const MulticastTree& tree, const Reference& ref,
                   int workers) {
  ASSERT_TRUE(tree.finalized());
  ASSERT_EQ(tree.bfsOrder(), ref.bfs) << "workers=" << workers;
  for (std::size_t v = 0; v < ref.children.size(); ++v) {
    const auto got = tree.childrenOf(static_cast<NodeId>(v));
    ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.children[v].begin(),
                           ref.children[v].end()))
        << "workers=" << workers << " node=" << v;
  }
}

void expectEveryWorkerCountMatches(const ParentArray& shape) {
  const Reference ref = serialReference(shape);
  ASSERT_EQ(ref.bfs.size(), shape.parent.size());
  for (const int workers : {1, 2, 4, 8}) {
    MulticastTree tree = attachAll(shape);
    tree.finalize(workers);
    expectMatches(tree, ref, workers);
  }
}

/// Random tree over shuffled node ids: the k-th node in insertion order
/// picks its parent among the first k with a cubic skew toward the oldest,
/// so a few hubs hold many children while most nodes hold none.
ParentArray skewedRandomTree(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), NodeId{0});
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[rng.uniformInt(i + 1)]);
  ParentArray shape{.root = order[0],
                    .parent = std::vector<NodeId>(static_cast<std::size_t>(n),
                                                  kNoNode)};
  for (std::size_t k = 1; k < order.size(); ++k) {
    const double u = rng.uniform();
    const auto pick = std::min(
        k - 1, static_cast<std::size_t>(u * u * u * static_cast<double>(k)));
    shape.parent[static_cast<std::size_t>(order[k])] = order[pick];
  }
  return shape;
}

TEST(MulticastTreeParallelFinalize, RandomSkewedTreeMatchesSerialReference) {
  const ParentArray shape = skewedRandomTree(200000, 0xF1A1);
  ASSERT_NE(shape.root, 0);
  expectEveryWorkerCountMatches(shape);
}

TEST(MulticastTreeParallelFinalize, DeepChainMatchesSerialReference) {
  // 100k levels of one node each; the root is the highest id.
  const NodeId n = 100000;
  ParentArray shape{.root = n - 1,
                    .parent = std::vector<NodeId>(static_cast<std::size_t>(n))};
  for (NodeId v = 0; v + 1 < n; ++v)
    shape.parent[static_cast<std::size_t>(v)] = v + 1;
  shape.parent[static_cast<std::size_t>(n - 1)] = kNoNode;
  expectEveryWorkerCountMatches(shape);
}

TEST(MulticastTreeParallelFinalize, StarMatchesSerialReference) {
  // One BFS level of n - 1 nodes, all children of a single parent.
  const NodeId n = 100000;
  ParentArray shape{.root = 0,
                    .parent = std::vector<NodeId>(static_cast<std::size_t>(n), 0)};
  shape.parent[0] = kNoNode;
  expectEveryWorkerCountMatches(shape);
}

TEST(MulticastTreeParallelFinalize, NonZeroRootMatchesSerialReference) {
  // Complete 4-ary tree over a relabelling that puts the root mid-range.
  const NodeId n = 120000;
  const NodeId shift = n / 2;
  const auto label = [&](NodeId heapIndex) { return (heapIndex + shift) % n; };
  ParentArray shape{.root = label(0),
                    .parent = std::vector<NodeId>(static_cast<std::size_t>(n),
                                                  kNoNode)};
  for (NodeId i = 1; i < n; ++i)
    shape.parent[static_cast<std::size_t>(label(i))] = label((i - 1) / 4);
  expectEveryWorkerCountMatches(shape);
}

TEST(MulticastTreeParallelFinalize, RefinalizeAfterFurtherAttachesRebuilds) {
  const ParentArray shape = skewedRandomTree(60000, 0xF1A2);
  const Reference ref = serialReference(shape);
  const auto n = static_cast<NodeId>(shape.parent.size());
  MulticastTree tree(n, shape.root);
  // Attach the first half, fail to finalize, attach the rest, finalize.
  for (NodeId v = 0; v < n / 2; ++v) {
    if (v != shape.root)
      tree.attach(v, shape.parent[static_cast<std::size_t>(v)], EdgeKind::kLocal);
  }
  EXPECT_THROW(tree.finalize(4), InvalidArgument);
  EXPECT_FALSE(tree.finalized());
  for (NodeId v = n / 2; v < n; ++v) {
    if (v != shape.root)
      tree.attach(v, shape.parent[static_cast<std::size_t>(v)], EdgeKind::kLocal);
  }
  tree.finalize(4);
  expectMatches(tree, ref, 4);
  // Finalizing a finalized tree again rebuilds into the same buffers.
  tree.finalize(2);
  expectMatches(tree, ref, 2);
}

TEST(MulticastTreeParallelFinalize, TwoCycleYieldsShortBfs) {
  // A large tree plus a detached 2-cycle: both cycle nodes stay out of the
  // BFS at any worker count, and finalize() terminates.
  const ParentArray shape = skewedRandomTree(50000, 0xF1A3);
  const Reference ref = serialReference(shape);
  const auto n = static_cast<NodeId>(shape.parent.size());
  MulticastTree withCycle(n + 2, shape.root);
  for (NodeId v = 0; v < n; ++v) {
    if (v != shape.root)
      withCycle.attach(v, shape.parent[static_cast<std::size_t>(v)],
                       EdgeKind::kLocal);
  }
  const NodeId a = n;
  const NodeId b = n + 1;
  withCycle.attach(a, b, EdgeKind::kLocal);
  withCycle.attach(b, a, EdgeKind::kLocal);
  withCycle.finalize(4);
  EXPECT_EQ(withCycle.bfsOrder(), ref.bfs);

  MulticastTree small(3, 0);
  small.attach(1, 2, EdgeKind::kLocal);
  small.attach(2, 1, EdgeKind::kLocal);
  small.finalize(4);
  EXPECT_EQ(small.bfsOrder(), std::vector<NodeId>{0});
}

TEST(MulticastTreeParallelFinalize, UnattachedNodeThrows) {
  const ParentArray shape = skewedRandomTree(50000, 0xF1A4);
  const auto n = static_cast<NodeId>(shape.parent.size());
  MulticastTree tree(n, shape.root);
  const NodeId skipped = shape.root == 17 ? 18 : 17;
  for (NodeId v = 0; v < n; ++v) {
    if (v != shape.root && v != skipped)
      tree.attach(v, shape.parent[static_cast<std::size_t>(v)], EdgeKind::kLocal);
  }
  EXPECT_THROW(tree.finalize(4), InvalidArgument);
  EXPECT_FALSE(tree.finalized());
}

}  // namespace
}  // namespace omt
