// Self-test of the benchmark's checks: known-good outputs must pass and
// known-bad ones must each count as a failure in the same CheckLedger the
// benchmark reports from. Exit code 0 when every expectation holds.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <vector>

#include "checks.h"
#include "omt/core/polar_grid_tree.h"
#include "omt/random/rng.h"
#include "omt/random/samplers.h"

namespace {

int gBroken = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++gBroken;
}

/// A copy of `tree` in which node `v` hangs under one of its own children,
/// so v and that child form a cycle cut off from the root.
omt::MulticastTree rewireIntoCycle(const omt::MulticastTree& tree,
                                   omt::NodeId v) {
  const omt::NodeId child = tree.childrenOf(v).front();
  omt::MulticastTree broken(tree.size(), tree.root());
  for (omt::NodeId u = 0; u < tree.size(); ++u) {
    if (u == tree.root()) continue;
    broken.attach(u, u == v ? child : tree.parentOf(u),
                  omt::EdgeKind::kLocal);
  }
  broken.finalize();
  return broken;
}

}  // namespace

int main() {
  omt::Rng rng(7);
  const std::vector<omt::Point> points =
      omt::sampleDiskWithCenterSource(rng, 2000, 2);
  const omt::PolarGridResult built =
      omt::buildPolarGridTree(points, 0, {.maxOutDegree = 6, .workers = 1});

  perfbench::CheckLedger good;
  perfbench::checkTree(good, built.tree, 6);
  perfbench::checkEqual(good, "fingerprint", 42, 42);
  expect(good.attempted() == 2 && good.failed() == 0,
         "a valid tree and equal fingerprints pass");

  // An interior non-root node with at least one child.
  omt::NodeId v = omt::kNoNode;
  for (const omt::NodeId u : built.tree.bfsOrder()) {
    if (u != built.tree.root() && !built.tree.childrenOf(u).empty()) {
      v = u;
      break;
    }
  }
  perfbench::CheckLedger bad;
  perfbench::checkTree(bad, rewireIntoCycle(built.tree, v), 6);
  expect(bad.failed() == 1, "a parent rewired into a cycle fails checkTree");
  perfbench::checkEqual(bad, "fingerprint", 0x1234, 0x1235);
  expect(bad.failed() == 2 && bad.attempted() == 2,
         "a mismatched fingerprint fails checkEqual");
  perfbench::checkTree(bad, built.tree, 2);
  expect(bad.failed() == 3, "a degree cap below the tree's fan-out fails");

  std::printf("%s\n", gBroken == 0 ? "SELFTEST OK" : "SELFTEST FAILED");
  return gBroken == 0 ? 0 : 1;
}
