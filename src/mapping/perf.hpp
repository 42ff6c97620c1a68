// Hot-path performance counters.
//
// The router and the resource tracker are the PathFinder-style inner
// loop every mapper funnels through (§II-B routing; DRESC [22] and EMS
// [37] spend their time here). These counters make that loop
// observable at near-zero cost: each worker thread accumulates into
// its own thread-local PerfCounters, and the attempt brackets in
// mappers/common snapshot the delta so every kAttemptDone MapEvent —
// and therefore every MapTrace JSON — carries the router/tracker
// effort behind it. bench/perf_suite turns the same counters into
// queries/sec and hit-rate columns of BENCH_perf.json.
//
// Thread model: counters are strictly per-thread (no atomics, no
// sharing). A mapper attempt runs on one thread, so the delta around
// attempt() is exactly that attempt's work; the portfolio engine's
// racing mappers each accumulate into their own thread's counters.
#pragma once

#include <cstdint>

namespace cgra {

struct PerfCounters {
  /// Saturating add: MapTrace::TotalPerf sums counters across
  /// thousands of batch attempts, and a wrapped uint64 would report a
  /// tiny total instead of "a lot". Pegging at max is the honest
  /// aggregate.
  static std::uint64_t SatAdd(std::uint64_t a, std::uint64_t b) {
    const std::uint64_t s = a + b;
    return s < a ? ~std::uint64_t{0} : s;
  }

  // Router (mapping/router.cpp).
  std::uint64_t router_queries = 0;     ///< RouteValue calls
  std::uint64_t router_routed = 0;      ///< ... that returned a route
  std::uint64_t router_pushes = 0;      ///< priority-queue pushes
  std::uint64_t router_pops = 0;        ///< priority-queue pops
  std::uint64_t router_expansions = 0;  ///< states expanded (out-links walked)
  // Router scratch arena (flat best/parent state, epoch-stamped).
  std::uint64_t arena_reuses = 0;       ///< queries served by a warm arena
  std::uint64_t arena_grows = 0;        ///< arena (re)allocations
  // Resource tracker (mapping/tracker.cpp).
  std::uint64_t tracker_checks = 0;     ///< CanOccupy calls
  std::uint64_t tracker_check_hits = 0; ///< ... that said yes
  std::uint64_t tracker_occupies = 0;   ///< Occupy calls
  std::uint64_t tracker_releases = 0;   ///< Release calls

  /// Aggregation saturates instead of wrapping (see SatAdd). The
  /// per-thread accumulators this diffs over are nowhere near 2^64, so
  /// only cross-attempt aggregation needed the guard.
  PerfCounters& operator+=(const PerfCounters& o) {
    router_queries = SatAdd(router_queries, o.router_queries);
    router_routed = SatAdd(router_routed, o.router_routed);
    router_pushes = SatAdd(router_pushes, o.router_pushes);
    router_pops = SatAdd(router_pops, o.router_pops);
    router_expansions = SatAdd(router_expansions, o.router_expansions);
    arena_reuses = SatAdd(arena_reuses, o.arena_reuses);
    arena_grows = SatAdd(arena_grows, o.arena_grows);
    tracker_checks = SatAdd(tracker_checks, o.tracker_checks);
    tracker_check_hits = SatAdd(tracker_check_hits, o.tracker_check_hits);
    tracker_occupies = SatAdd(tracker_occupies, o.tracker_occupies);
    tracker_releases = SatAdd(tracker_releases, o.tracker_releases);
    return *this;
  }

  /// Counter-wise difference (for before/after snapshots around an
  /// attempt). Counters are monotonic per thread, so `after - before`
  /// never underflows when taken on the same thread.
  PerfCounters operator-(const PerfCounters& o) const {
    PerfCounters d;
    d.router_queries = router_queries - o.router_queries;
    d.router_routed = router_routed - o.router_routed;
    d.router_pushes = router_pushes - o.router_pushes;
    d.router_pops = router_pops - o.router_pops;
    d.router_expansions = router_expansions - o.router_expansions;
    d.arena_reuses = arena_reuses - o.arena_reuses;
    d.arena_grows = arena_grows - o.arena_grows;
    d.tracker_checks = tracker_checks - o.tracker_checks;
    d.tracker_check_hits = tracker_check_hits - o.tracker_check_hits;
    d.tracker_occupies = tracker_occupies - o.tracker_occupies;
    d.tracker_releases = tracker_releases - o.tracker_releases;
    return d;
  }

  bool Any() const {
    return router_queries | router_pushes | router_pops | tracker_checks |
           tracker_occupies | tracker_releases;
  }
};

/// This thread's accumulator. Router and tracker bump it directly;
/// consumers snapshot before/after a unit of work and diff.
inline PerfCounters& ThreadPerfCounters() {
  static thread_local PerfCounters counters;
  return counters;
}

}  // namespace cgra
