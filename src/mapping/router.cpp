#include "mapping/router.hpp"

#include <algorithm>
#include <cassert>
#include <climits>
#include <queue>

#include "mapping/perf.hpp"
#include "telemetry/telemetry.hpp"

namespace cgra {
namespace {

// Search state. `stay` counts consecutive cycles already spent in
// `node`; it bounds how many entries one path may stack onto a single
// (node, slot) pair — without it a long wait in one register file
// could silently exceed the file's capacity (each II wrap is another
// live copy).
struct State {
  double f;  ///< g + admissible remaining-cost bound (== g without A*)
  double g;  ///< cost so far
  int node;
  int time;
  int stay;
};

struct StateCmp {
  bool operator()(const State& a, const State& b) const { return a.f > b.f; }
};

// priority_queue subclass that exposes its container, so the heap
// storage can be recycled across queries instead of reallocating.
class StateQueue
    : public std::priority_queue<State, std::vector<State>, StateCmp> {
 public:
  explicit StateQueue(std::vector<State>&& storage)
      : priority_queue(StateCmp{}, std::move(storage)) {}
  std::vector<State> TakeStorage() {
    c.clear();
    return std::move(c);
  }
};

// Per-thread scratch arena: flat best/parent vectors indexed by the
// packed (node, time - start, stay) state. Entries are epoch-stamped —
// an entry belongs to the current query iff stamp == epoch — so reuse
// across queries (and across II-escalation retries inside one mapper
// run) needs no clearing and can never leak a stale parent chain into
// a later route. The per-node goal and hop-bound stamps share the
// query epoch, so each query starts with an empty goal set and cache.
struct Scratch {
  std::vector<double> best;
  std::vector<std::int32_t> parent;      ///< arena index of predecessor, -1 root
  std::vector<std::uint32_t> stamp;      ///< per-state epoch
  std::vector<std::uint32_t> goal_stamp; ///< per-node: is a goal this epoch
  std::vector<std::uint32_t> hop_stamp;  ///< per-node: hop_lb cache validity
  std::vector<std::int32_t> hop_lb;      ///< per-node cached hops-to-goal bound
  std::vector<State> heap_storage;
  std::uint32_t epoch = 0;
  std::uint64_t reuses = 0;
  std::uint64_t grows = 0;

  /// Starts a query: bumps the epoch (clearing every state, goal and
  /// hop stamp on the rare uint32 wrap) and guarantees capacity for
  /// `states` packed states and `nodes` per-node entries. Returns true
  /// when the arena had to (re)allocate, false when the warm arrays
  /// were reused as-is.
  bool Begin(std::size_t states, std::size_t nodes) {
    if (++epoch == 0) {
      std::fill(stamp.begin(), stamp.end(), 0u);
      std::fill(goal_stamp.begin(), goal_stamp.end(), 0u);
      std::fill(hop_stamp.begin(), hop_stamp.end(), 0u);
      epoch = 1;
    }
    bool grew = false;
    if (states > best.size()) {
      best.resize(states);
      parent.resize(states);
      stamp.resize(states, 0u);  // new stamps start invalid
      ++grows;
      grew = true;
    } else {
      ++reuses;
    }
    if (nodes > goal_stamp.size()) {
      goal_stamp.resize(nodes, 0u);
      hop_stamp.resize(nodes, 0u);
      hop_lb.resize(nodes, 0);
    }
    return grew;
  }
};

Scratch& TlsScratch() {
  static thread_local Scratch scratch;
  return scratch;
}

}  // namespace

int HopsToReader(const Mrrg& mrrg, int node, int to_cell) {
  const int cell = mrrg.cell(node);
  if (cell < 0) return 0;  // the shared register file
  const Architecture& arch = mrrg.arch();
  int hops = -1;
  for (const int g : mrrg.ReadableHolds(to_cell)) {
    const int gcell = mrrg.cell(g);
    if (gcell < 0) return 0;
    const int d = arch.HopDistance(cell, gcell);
    if (d >= 0 && (hops < 0 || d < hops)) hops = d;
  }
  return hops;
}

Result<Route> RouteValue(const Mrrg& mrrg, ResourceTracker& tracker,
                         const RouteRequest& request,
                         const RouterOptions& options) {
  // Per-query spans only under the detail gate: a mapper issues
  // thousands of these, which would swamp the rings on a normal trace.
  telemetry::Span query_span(telemetry::DetailEnabled() ? "phase.route"
                                                        : nullptr);
  PerfCounters& perf = ThreadPerfCounters();
  ++perf.router_queries;

  const int ii = tracker.ii();
  const int start_time = request.from_time + 1;
  if (start_time > request.to_time) {
    return Error::Unmappable("consumer issues before the producer's latch");
  }
  const int start_node = mrrg.HoldNode(request.from_cell);
  if (!options.ignore_capacity &&
      !tracker.CanOccupy(start_node, start_time, request.value)) {
    return Error::Unmappable("producer's register file is full at the latch cycle");
  }

  // ---- arena layout for this query ----------------------------------------
  // State index = (node * horizon + (time - start_time)) * stay_bins + stay.
  // `stay` is bounded by the tightest of: the time window itself (each
  // waited cycle advances time), and — when capacities apply — the
  // largest chain any register file can hold, ceil-free form
  // max_capacity * II (a chain of that length already occupies every
  // capacity unit of its slot).
  const int num_nodes = mrrg.num_nodes();
  const int horizon = request.to_time - start_time + 1;
  const int stay_bins =
      options.ignore_capacity
          ? horizon
          : std::max(1, std::min(horizon, mrrg.max_capacity() * ii));
  const std::size_t states = static_cast<std::size_t>(num_nodes) *
                             static_cast<std::size_t>(horizon) *
                             static_cast<std::size_t>(stay_bins);
  assert(states < static_cast<std::size_t>(INT32_MAX) &&
         "route window too large for the int32 parent arena");

  Scratch& scratch = TlsScratch();
  if (scratch.Begin(states, static_cast<std::size_t>(num_nodes))) {
    ++perf.arena_grows;
  } else {
    ++perf.arena_reuses;
  }
  const std::uint32_t epoch = scratch.epoch;

  auto index = [&](int node, int time, int stay) -> std::size_t {
    return (static_cast<std::size_t>(node) * static_cast<std::size_t>(horizon) +
            static_cast<std::size_t>(time - start_time)) *
               static_cast<std::size_t>(stay_bins) +
           static_cast<std::size_t>(stay);
  };

  for (const int g : mrrg.ReadableHolds(request.to_cell)) {
    scratch.goal_stamp[static_cast<std::size_t>(g)] = epoch;
  }

  auto node_cost = [&](int node) {
    double c = options.step_cost;
    if (options.history_cost &&
        static_cast<size_t>(node) < options.history_cost->size()) {
      c += (*options.history_cost)[static_cast<size_t>(node)];
    }
    return c;
  };

  // ---- admissible A* bound -------------------------------------------------
  // Every remaining step costs >= step_cost (history costs are
  // non-negative), every step advances time by at most one cycle, and
  // reaching a goal from `node` needs at least HopsToReader hops in both
  // steps and cycles. A node that reaches no goal gets an infinite
  // bound, so the deadline prune below drops it.
  auto goal_hops = [&](int node) -> int {
    std::uint32_t& cached = scratch.hop_stamp[static_cast<std::size_t>(node)];
    if (cached == epoch) {
      return scratch.hop_lb[static_cast<std::size_t>(node)];
    }
    const int hops = HopsToReader(mrrg, node, request.to_cell);
    const int bound = hops < 0 ? INT_MAX : hops;
    cached = epoch;
    scratch.hop_lb[static_cast<std::size_t>(node)] = bound;
    return bound;
  };
  const bool use_h = options.use_heuristic;
  auto heuristic = [&](int node, int time) -> double {
    if (!use_h) return 0.0;
    const int lb = std::max(request.to_time - time, goal_hops(node));
    return options.step_cost * lb;
  };

  // True when a consecutive chain of `chain_len` cycles ending at
  // (node, end_time) fits the capacity of every slot it touches,
  // together with the existing tracker load. The chain hits the slot
  // of `end_time` exactly floor((chain_len - 1) / ii) + 1 times.
  auto chain_fits = [&](int node, int end_time, int chain_len) {
    if (options.ignore_capacity) return true;
    const int hits = (chain_len - 1) / ii + 1;
    const int slot = ((end_time % ii) + ii) % ii;
    return tracker.Load(node, slot) + hits <= mrrg.capacity(node);
  };

  std::uint64_t pushes = 0, pops = 0;
  const std::size_t start_idx = index(start_node, start_time, 0);
  scratch.best[start_idx] = node_cost(start_node);
  scratch.parent[start_idx] = -1;
  scratch.stamp[start_idx] = epoch;
  StateQueue pq(std::move(scratch.heap_storage));
  pq.push(State{scratch.best[start_idx] + heuristic(start_node, start_time),
                scratch.best[start_idx], start_node, start_time, 0});
  ++pushes;

  int expansions = 0;
  std::int64_t goal_idx = -1;

  while (!pq.empty()) {
    const State s = pq.top();
    pq.pop();
    ++pops;
    const std::size_t k = index(s.node, s.time, s.stay);
    if (scratch.stamp[k] != epoch || scratch.best[k] < s.g) continue;
    if (s.time == request.to_time &&
        scratch.goal_stamp[static_cast<std::size_t>(s.node)] == epoch) {
      goal_idx = static_cast<std::int64_t>(k);
      break;
    }
    if (++expansions > options.max_expansions) break;
    for (const Mrrg::Link& link : mrrg.OutLinks(s.node)) {
      const int nt = s.time + link.latency;
      if (nt > request.to_time) continue;
      const bool self_stay = link.to == s.node;
      const int nstay = self_stay ? s.stay + 1 : 0;
      if (self_stay) {
        // The whole consecutive chain (nstay + 1 cycles) must fit.
        if (!chain_fits(link.to, nt, nstay + 1)) continue;
      } else if (!options.ignore_capacity &&
                 !tracker.CanOccupy(link.to, nt, request.value)) {
        continue;
      }
      // A state that still needs more fabric hops than it has cycles
      // left can never make the consumer's deadline; drop it early.
      if (use_h && goal_hops(link.to) > request.to_time - nt) continue;
      assert(nstay < stay_bins);
      const double nc = s.g + node_cost(link.to);
      const std::size_t nk = index(link.to, nt, nstay);
      if (scratch.stamp[nk] != epoch || nc < scratch.best[nk]) {
        scratch.stamp[nk] = epoch;
        scratch.best[nk] = nc;
        scratch.parent[nk] = static_cast<std::int32_t>(k);
        pq.push(State{nc + heuristic(link.to, nt), nc, link.to, nt, nstay});
        ++pushes;
      }
    }
  }

  scratch.heap_storage = pq.TakeStorage();
  perf.router_pushes += pushes;
  perf.router_pops += pops;
  perf.router_expansions += static_cast<std::uint64_t>(expansions);

  if (goal_idx < 0) {
    return Error::Unmappable("no capacity-respecting route of the required latency");
  }

  Route route;
  const std::size_t plane = static_cast<std::size_t>(stay_bins);
  for (std::int64_t k = goal_idx; k >= 0;
       k = scratch.parent[static_cast<std::size_t>(k)]) {
    const std::size_t uk = static_cast<std::size_t>(k);
    const int node = static_cast<int>(uk / (plane * static_cast<std::size_t>(horizon)));
    const int time =
        start_time + static_cast<int>((uk / plane) % static_cast<std::size_t>(horizon));
    route.steps.push_back(RouteStep{node, time});
  }
  std::reverse(route.steps.begin(), route.steps.end());

  if (!options.ignore_capacity) {
    for (const RouteStep& step : route.steps) {
      tracker.Occupy(step.node, step.time, request.value);
    }
    // Defence in depth: non-consecutive revisits of a node are not
    // covered by the stay counter; verify the committed load and back
    // out if anything overflowed.
    for (const RouteStep& step : route.steps) {
      const int slot = ((step.time % ii) + ii) % ii;
      if (tracker.Load(step.node, slot) > mrrg.capacity(step.node)) {
        ReleaseRoute(tracker, route, request.value);
        return Error::Unmappable("route would overflow a register file");
      }
    }
  }
  ++perf.router_routed;
  return route;
}

void ReleaseRoute(ResourceTracker& tracker, const Route& route, ValueId value) {
  for (const RouteStep& step : route.steps) {
    tracker.Release(step.node, step.time, value);
  }
}

namespace router_internal {

ScratchStats CurrentScratchStats() {
  const Scratch& scratch = TlsScratch();
  ScratchStats stats;
  stats.epoch = scratch.epoch;
  stats.capacity = scratch.best.size();
  stats.reuses = scratch.reuses;
  stats.grows = scratch.grows;
  return stats;
}

void ResetScratchForTest() { TlsScratch() = Scratch{}; }

void SetEpochForTest(std::uint32_t epoch) { TlsScratch().epoch = epoch; }

}  // namespace router_internal

}  // namespace cgra
