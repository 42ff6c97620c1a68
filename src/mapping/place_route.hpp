// Incremental place-and-route state shared by the heuristic and
// meta-heuristic mappers.
//
// Maintains a partial mapping at a fixed II: op placements, FU/RF/route
// occupancy, memory-bank port usage, and the routes of every data edge
// whose two endpoints are placed. TryPlace is transactional — if any
// incident edge cannot be routed the placement rolls back — which is
// what lets schedulers backtrack cheaply (the Das et al. [24] style of
// exploring partial solutions).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "arch/mrrg.hpp"
#include "ir/dfg.hpp"
#include "mapping/mapping.hpp"
#include "mapping/router.hpp"
#include "mapping/tracker.hpp"

namespace cgra {

class PlaceRouteState {
 public:
  /// `mrrg` must outlive the state. `ii` >= 1.
  PlaceRouteState(const Dfg& dfg, const Architecture& arch, const Mrrg& mrrg,
                  int ii);

  const Dfg& dfg() const { return *dfg_; }
  const Architecture& arch() const { return *arch_; }
  int ii() const { return ii_; }

  bool IsPlaced(OpId op) const {
    return place_[static_cast<size_t>(op)].cell >= 0;
  }
  const Placement& placement(OpId op) const {
    return place_[static_cast<size_t>(op)];
  }

  /// Ops that must be placed (folded constants excluded).
  const std::vector<OpId>& MappableOps() const { return mappable_; }

  /// Cells whose FU can execute `op` at all (capability only).
  std::vector<int> CandidateCells(OpId op) const;

  /// Attempts to place `op` on `cell` at absolute `time`, routing every
  /// data edge whose other endpoint is already placed and checking
  /// ordering edges and bank ports. All-or-nothing.
  bool TryPlace(OpId op, int cell, int time,
                const RouterOptions& router_options = {});

  /// Removes `op`, releasing its FU slot, bank port and incident routes.
  void Unplace(OpId op);

  /// Number of ops currently placed.
  int placed_count() const { return placed_count_; }

  /// Total route steps created by the last successful TryPlace (the
  /// routing cost of that placement; used by cost-driven mappers).
  int last_route_steps() const { return last_route_steps_; }

  /// Why the last TryPlace failed (diagnostics for RAMP-style
  /// failure-driven escalation).
  enum class FailReason {
    kNone,
    kIncompatibleCell,
    kFuBusy,
    kBankPortConflict,
    kTimingViolated,  ///< an incident edge's latency would be < 1, or
                      ///< shorter than its fabric distance (HopsToReader)
    kRouteCongested,  ///< router found no capacity-respecting path
  };
  FailReason last_fail() const { return last_fail_; }

  /// Assembles the final Mapping; call only when every mappable op is
  /// placed.
  Mapping Finalize() const;

 private:
  bool RouteEdge(int edge_index, const RouterOptions& options);
  void UnrouteEdge(int edge_index);
  int BankOf(int cell) const { return arch_->caps(cell).bank; }

  const Dfg* dfg_;
  const Architecture* arch_;
  const Mrrg* mrrg_;
  int ii_;
  ResourceTracker tracker_;
  std::vector<Placement> place_;
  std::vector<DfgEdge> edges_;             ///< Dfg::Edges(true) order
  std::vector<std::optional<Route>> routes_;
  std::vector<std::vector<int>> edges_of_; ///< op -> incident edge indices
  std::vector<std::vector<int>> bank_load_;///< bank -> per-slot access count
  int placed_count_ = 0;
  std::vector<OpId> mappable_;
  FailReason last_fail_ = FailReason::kNone;
  int last_route_steps_ = 0;
};

}  // namespace cgra
