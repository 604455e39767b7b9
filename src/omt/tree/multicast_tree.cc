#include "omt/tree/multicast_tree.h"

#include <algorithm>

#include "omt/parallel/parallel_for.h"
#include "omt/parallel/scratch_arena.h"

namespace omt {

MulticastTree::MulticastTree(NodeId nodeCount, NodeId root)
    : root_(root),
      parent_(static_cast<std::size_t>(nodeCount), kNoNode),
      kind_(static_cast<std::size_t>(nodeCount), EdgeKind::kLocal),
      outDegree_(static_cast<std::size_t>(nodeCount), 0) {
  OMT_CHECK(nodeCount >= 1, "tree needs at least one node");
  OMT_CHECK(root >= 0 && root < nodeCount, "root out of range");
}

void MulticastTree::attach(NodeId child, NodeId parent, EdgeKind kind) {
  checkNode(child);
  checkNode(parent);
  OMT_CHECK(child != root_, "cannot attach the root");
  OMT_CHECK(child != parent, "self-loop");
  OMT_CHECK(parent_[static_cast<std::size_t>(child)] == kNoNode,
            "node attached twice");
  parent_[static_cast<std::size_t>(child)] = parent;
  kind_[static_cast<std::size_t>(child)] = kind;
  ++outDegree_[static_cast<std::size_t>(parent)];
  // Write only on an actual transition: the parallel grid build attaches
  // disjoint children/parents concurrently into a never-finalized tree, and
  // an unconditional store here would be its only shared write.
  if (finalized_) finalized_ = false;
}

EdgeKind MulticastTree::edgeKindOf(NodeId node) const {
  checkNode(node);
  OMT_CHECK(node != root_, "the root has no incoming edge");
  OMT_CHECK(parent_[static_cast<std::size_t>(node)] != kNoNode,
            "node not attached");
  return kind_[static_cast<std::size_t>(node)];
}

namespace {

/// Smallest amount of work (child edges to place, or frontier nodes to
/// expand) worth one finalize task; smaller trees and BFS levels run as a
/// single inline task. Only the task count depends on it, never the result.
constexpr std::int64_t kMinTaskItems = 1 << 14;

int taskCount(std::int64_t items, int workers) {
  return static_cast<int>(
      std::clamp<std::int64_t>(items / kMinTaskItems, 1, workers));
}

}  // namespace

void MulticastTree::finalize(int workers) {
  OMT_CHECK(workers >= 1, "need at least one worker");
  const std::size_t n = parent_.size();
  const auto edges = static_cast<std::int64_t>(n) - 1;

  // Child offsets straight from the out-degrees attach() maintains. Each
  // attached non-root node added one to its parent's degree, so the degrees
  // sum to n - 1 exactly when every node is attached. The offsets are
  // stored one slot late (childOffset_[p + 1] = p's first child slot): the
  // fill uses that slot as p's cursor and leaves it at p's end, which is
  // the final CSR bound.
  childOffset_.resize(n + 1);
  childOffset_[0] = 0;
  std::int64_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    childOffset_[v + 1] = total;
    total += outDegree_[v];
  }
  OMT_CHECK(total == edges, "finalize() with unattached nodes");

  ScratchArena& arena = workerArena();
  ScratchArena::Scope scope(arena);

  // Child CSR. Each task owns one contiguous parent range holding about
  // the same number of children, streams parent_ in ascending v and places
  // only the children of its own parents, so every child list comes out
  // ascending with no atomics and no sort, for any task count.
  childList_.resize(static_cast<std::size_t>(edges));
  const std::span<const std::int64_t> firstSlot =
      std::span<const std::int64_t>(childOffset_).subspan(1);
  const int fillTasks = taskCount(edges, workers);
  const auto tasksEnd = static_cast<std::size_t>(fillTasks);
  // Task t places the children of parents [bound[t], bound[t + 1]), which
  // occupy child slots [slot[t], slot[t + 1]).
  std::span<NodeId> bound = arena.alloc<NodeId>(tasksEnd + 1);
  std::span<std::int64_t> slot = arena.alloc<std::int64_t>(tasksEnd + 1);
  for (std::size_t t = 0; t < tasksEnd; ++t) {
    const std::int64_t target = edges * static_cast<std::int64_t>(t) / fillTasks;
    const auto p = static_cast<std::size_t>(
        std::lower_bound(firstSlot.begin(), firstSlot.end(), target) -
        firstSlot.begin());
    bound[t] = static_cast<NodeId>(p);
    slot[t] = p < n ? firstSlot[p] : edges;
  }
  bound[tasksEnd] = static_cast<NodeId>(n);
  slot[tasksEnd] = edges;
  parallelFor(0, fillTasks, fillTasks, [&](std::int64_t task) {
    const auto t = static_cast<std::size_t>(task);
    if (slot[t] == slot[t + 1]) return;
    const NodeId lo = bound[t];
    // The root's kNoNode parent wraps to a huge unsigned offset, so the
    // single range test also skips it.
    const auto width = static_cast<std::uint64_t>(bound[t + 1] - lo);
    for (std::size_t v = 0; v < n; ++v) {
      const NodeId p = parent_[v];
      if (static_cast<std::uint64_t>(p - lo) < width) {
        childList_[static_cast<std::size_t>(
            childOffset_[static_cast<std::size_t>(p) + 1]++)] =
            static_cast<NodeId>(v);
      }
    }
  });

  // Level-synchronous BFS from the root: each level's children are written
  // right after it, every frontier slice at an output offset that is the
  // prefix of the child counts of the slices before it — the same order a
  // queue walk produces. If the parent links contain a cycle, some nodes
  // are unreachable and bfsOrder_ ends up shorter than n; validation
  // reports that as a broken tree rather than this method looping forever.
  bfsOrder_.resize(n);
  bfsOrder_[0] = root_;
  const auto expand = [&](std::size_t begin, std::size_t end, std::size_t out) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto v = static_cast<std::size_t>(bfsOrder_[i]);
      for (auto c = childOffset_[v]; c < childOffset_[v + 1]; ++c)
        bfsOrder_[out++] = childList_[static_cast<std::size_t>(c)];
    }
    return out;
  };
  const auto childCount = [&](std::size_t begin, std::size_t end) {
    std::int64_t count = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto v = static_cast<std::size_t>(bfsOrder_[i]);
      count += childOffset_[v + 1] - childOffset_[v];
    }
    return count;
  };
  // offset[t]: where frontier slice t's children start, relative to the
  // level's end.
  std::span<std::int64_t> offset =
      arena.alloc<std::int64_t>(static_cast<std::size_t>(workers) + 1);
  offset[0] = 0;
  std::size_t levelBegin = 0;
  std::size_t levelEnd = 1;
  while (levelBegin < levelEnd) {
    const std::size_t frontier = levelEnd - levelBegin;
    const int tasks = taskCount(static_cast<std::int64_t>(frontier), workers);
    std::size_t next = levelEnd;
    if (tasks == 1) {
      next = expand(levelBegin, levelEnd, levelEnd);
    } else {
      const auto slice = [&](std::int64_t t) {
        return levelBegin + frontier * static_cast<std::size_t>(t) /
                                static_cast<std::size_t>(tasks);
      };
      parallelFor(0, tasks, tasks, [&](std::int64_t t) {
        offset[static_cast<std::size_t>(t) + 1] =
            childCount(slice(t), slice(t + 1));
      });
      for (int t = 0; t < tasks; ++t)
        offset[static_cast<std::size_t>(t) + 1] +=
            offset[static_cast<std::size_t>(t)];
      parallelFor(0, tasks, tasks, [&](std::int64_t t) {
        expand(slice(t), slice(t + 1),
               levelEnd + static_cast<std::size_t>(
                              offset[static_cast<std::size_t>(t)]));
      });
      next = levelEnd + static_cast<std::size_t>(
                            offset[static_cast<std::size_t>(tasks)]);
    }
    levelBegin = levelEnd;
    levelEnd = next;
  }
  bfsOrder_.resize(levelEnd);
  finalized_ = true;
}

std::span<const NodeId> MulticastTree::childrenOf(NodeId node) const {
  OMT_CHECK(finalized_, "childrenOf() before finalize()");
  checkNode(node);
  const auto begin = childOffset_[static_cast<std::size_t>(node)];
  const auto end = childOffset_[static_cast<std::size_t>(node) + 1];
  return {childList_.data() + begin, static_cast<std::size_t>(end - begin)};
}

const std::vector<NodeId>& MulticastTree::bfsOrder() const {
  OMT_CHECK(finalized_, "bfsOrder() before finalize()");
  return bfsOrder_;
}

}  // namespace omt
