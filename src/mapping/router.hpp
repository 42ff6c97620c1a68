// Time-extended router (§II-B "Routing": "use an existing link without
// interfering with already existing communications using this link").
//
// Routes one value from its producer's latch to a hold readable by the
// consumer at exactly the consumer's issue cycle, by A* (Dijkstra plus
// an admissible lower bound) over (MRRG node, absolute time) states.
// Hold self-links let a value wait in a register, so any arrival cycle
// >= producer+1 is reachable if capacity permits.
//
// The search state lives in a per-thread scratch arena: flat best-cost
// / parent vectors indexed by the packed (node, time, stay) state and
// stamped with a query epoch, so consecutive queries reuse the arrays
// without clearing them. This is the hot path of every PathFinder-style
// negotiated-routing mapper (DRESC [22], EMS [37]); see docs/PERF.md
// for the measured effect of the flat rewrite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/mrrg.hpp"
#include "mapping/mapping.hpp"
#include "mapping/tracker.hpp"
#include "support/status.hpp"

namespace cgra {

struct RouteRequest {
  int from_cell = -1;
  int from_time = -1;  ///< producer issue cycle
  int to_cell = -1;
  int to_time = -1;    ///< consumer issue cycle + II*distance (absolute)
  ValueId value = -1;  ///< producer op id (nets sharing a value share steps)
};

struct RouterOptions {
  /// Per-MRRG-node extra cost (PathFinder-style history); may be null.
  /// Entries must be non-negative: the A* lower bound assumes every
  /// step costs at least `step_cost` (disable `use_heuristic` if you
  /// need negative history costs).
  const std::vector<double>* history_cost = nullptr;
  /// Base cost of occupying one (node, time) step.
  double step_cost = 1.0;
  /// Hard cap on search expansions (guards pathological searches).
  int max_expansions = 1 << 18;
  /// DRESC-style congestion-negotiating mode: ignore capacities and do
  /// NOT record occupancy in the tracker — the caller accounts overuse
  /// itself and anneals it away (Mei et al. [22]).
  bool ignore_capacity = false;
  /// Guide the search with an admissible A* heuristic built from the
  /// hop-distance tables the Architecture precomputes: remaining cost
  /// >= step_cost * max(cycles-to-deadline, hops-to-consumer). Never
  /// changes which routes are reachable or their cost; prunes states
  /// that provably cannot reach the consumer in time. Off by default
  /// because A* pops equal-cost states in a different order than plain
  /// Dijkstra, which can return a different (equal-cost) route and so
  /// perturb tie-break-sensitive search mappers; turn it on when exact
  /// route identity with the Dijkstra order does not matter.
  bool use_heuristic = false;
};

/// On success the returned route's steps are already recorded in the
/// tracker (call ReleaseRoute to undo). Fails with kUnmappable when no
/// capacity-respecting path of the exact required latency exists.
Result<Route> RouteValue(const Mrrg& mrrg, ResourceTracker& tracker,
                         const RouteRequest& request,
                         const RouterOptions& options = {});

/// Fewest fabric hops from MRRG node `node`'s cell to a register
/// `to_cell`'s FU reads: 0 when either side is the shared register
/// file, -1 when no reader can be reached. Each hop costs exactly one
/// cycle (HOLD -> neighbour RT at latency 0, RT -> its HOLD at 1), so
/// a value held in `node` at cycle t reaches no reader before t + hops.
/// This is the fabric-distance bound of both the placement timing rule
/// (PlaceRouteState) and RouteValue's A* prune.
int HopsToReader(const Mrrg& mrrg, int node, int to_cell);

/// Releases every step of `route` for `value`.
void ReleaseRoute(ResourceTracker& tracker, const Route& route, ValueId value);

// Test-only visibility into this thread's router scratch arena (the
// epoch mechanism is a correctness feature: a stale best/parent entry
// surviving into a later query — e.g. across II-escalation retries
// inside one mapper run — would corrupt routes, so tests pin it down).
namespace router_internal {

struct ScratchStats {
  std::uint32_t epoch = 0;     ///< current query stamp
  std::size_t capacity = 0;    ///< allocated (node, time, stay) states
  std::uint64_t reuses = 0;    ///< queries that reused a warm arena
  std::uint64_t grows = 0;     ///< queries that (re)allocated
};

/// Stats of the calling thread's arena.
ScratchStats CurrentScratchStats();

/// Drops the calling thread's arena (next query reallocates).
void ResetScratchForTest();

/// Forces the epoch counter, e.g. to just below wrap-around, so tests
/// can exercise the wrap path without 2^32 queries.
void SetEpochForTest(std::uint32_t epoch);

}  // namespace router_internal

}  // namespace cgra
