// Output checks of the repository benchmark. Every timed operation's output
// goes through one of these, and each call counts one attempted check and,
// when it fails, one failure; the benchmark reports the totals as
// `attempted`/`failed` and refuses to call a run correct with any failure.
// selftest.cc feeds known-bad outputs through the same functions.
#pragma once

#include <cstdint>
#include <string>

#include "omt/service/group_manager.h"
#include "omt/service/route_table.h"
#include "omt/sim/dataplane/engine.h"
#include "omt/tree/multicast_tree.h"

namespace perfbench {

class CheckLedger {
 public:
  /// Count one check; remember the first failure's message.
  void record(bool ok, const std::string& what);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::string& firstFailure() const { return firstFailure_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::string firstFailure_;
};

/// Order-sensitive hash of the tree's parent array (the worker-count
/// determinism witness).
std::uint64_t parentArrayHash(const omt::MulticastTree& tree);

/// The tree spans every node from its root and respects the degree cap.
void checkTree(CheckLedger& ledger, const omt::MulticastTree& tree,
               int maxOutDegree);

/// Two values that must be identical (hashes, fingerprints).
void checkEqual(CheckLedger& ledger, const char* what, std::uint64_t a,
                std::uint64_t b);

/// A replay converged: `degraded` (quiesce's return) is zero and every
/// created group's published table passes checkConsistency(kFull).
void checkService(CheckLedger& ledger, const omt::GroupManager& manager,
                  std::int64_t degraded);

/// One route table passes its full structural audit.
void checkRouteTable(CheckLedger& ledger, const omt::RouteTable& table,
                     int maxOutDegree);

/// A data-plane session delivered every packet exactly once to every live
/// receiver.
void checkDataplane(CheckLedger& ledger,
                    const omt::dataplane::DataplaneResult& result);

}  // namespace perfbench
