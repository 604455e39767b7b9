#include "checks.h"

#include "omt/tree/validation.h"

namespace perfbench {

void CheckLedger::record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (firstFailure_.empty()) firstFailure_ = what;
}

std::uint64_t parentArrayHash(const omt::MulticastTree& tree) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over parent ids
  for (omt::NodeId v = 0; v < tree.size(); ++v) {
    auto p = static_cast<std::uint64_t>(tree.parentOf(v));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= p & 0xff;
      h *= 1099511628211ULL;
      p >>= 8;
    }
  }
  return h;
}

void checkTree(CheckLedger& ledger, const omt::MulticastTree& tree,
               int maxOutDegree) {
  const omt::ValidationResult result =
      omt::validate(tree, {.maxOutDegree = maxOutDegree});
  ledger.record(result.ok, "tree: " + result.message);
}

void checkEqual(CheckLedger& ledger, const char* what, std::uint64_t a,
                std::uint64_t b) {
  ledger.record(a == b, std::string(what) + ": " + std::to_string(a) +
                            " != " + std::to_string(b));
}

void checkService(CheckLedger& ledger, const omt::GroupManager& manager,
                  std::int64_t degraded) {
  ledger.record(degraded == 0, "service: " + std::to_string(degraded) +
                                   " group(s) degraded after quiesce");
  const int cap = manager.options().session.maxOutDegree;
  for (const omt::GroupId group : manager.createdGroups()) {
    if (const auto table = manager.routes(group))
      checkRouteTable(ledger, *table, cap);
  }
}

void checkRouteTable(CheckLedger& ledger, const omt::RouteTable& table,
                     int maxOutDegree) {
  const omt::RouteTableAudit audit = table.checkConsistency(
      maxOutDegree, omt::RouteTable::AuditMode::kFull);
  ledger.record(audit.ok, "route table of group " +
                              std::to_string(table.group()) + ": " +
                              audit.message);
}

void checkDataplane(CheckLedger& ledger,
                    const omt::dataplane::DataplaneResult& result) {
  ledger.record(result.completed && result.undelivered == 0,
                "dataplane: " + std::to_string(result.undelivered) +
                    " packet(s) undelivered" +
                    (result.stalled ? " (stalled)" : ""));
}

}  // namespace perfbench
