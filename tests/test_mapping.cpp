// Tests for the mapping core: resource tracker, time-extended router,
// incremental place-and-route, validator, stats.
#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "arch/arch.hpp"
#include "arch/fault.hpp"
#include "arch/mrrg.hpp"
#include "ir/kernels.hpp"
#include "mapping/mapping.hpp"
#include "mapping/perf.hpp"
#include "mapping/place_route.hpp"
#include "mapping/router.hpp"
#include "mapping/tracker.hpp"
#include "mapping/validator.hpp"

namespace cgra {
namespace {

TEST(Tracker, CapacityEnforced) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, /*ii=*/2);
  const int fu = mrrg.FuNode(0);  // capacity 1
  EXPECT_TRUE(t.CanOccupy(fu, 0, /*value=*/10));
  t.Occupy(fu, 0, 10);
  EXPECT_FALSE(t.CanOccupy(fu, 0, 11));
  EXPECT_FALSE(t.CanOccupy(fu, 2, 11)) << "slot 0 == slot 2 mod II";
  EXPECT_TRUE(t.CanOccupy(fu, 1, 11));
}

TEST(Tracker, SameValueSameTimeShares) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 2);
  const int h = mrrg.HoldNode(0);
  t.Occupy(h, 3, 7);
  // Re-occupying (same value, same absolute time) is free net sharing.
  EXPECT_TRUE(t.CanOccupy(h, 3, 7));
  // Same value at a DIFFERENT time mapping to the same slot is a new
  // copy (modulo self-overlap) and consumes capacity.
  for (int k = 0; k < arch.HoldCapacity() - 1; ++k) {
    t.Occupy(h, 3 + 2 * (k + 1), 7);
  }
  EXPECT_FALSE(t.CanOccupy(h, 3 + 2 * arch.HoldCapacity(), 7));
}

TEST(Tracker, RefCountedRelease) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 1);
  const int h = mrrg.HoldNode(0);
  t.Occupy(h, 0, 5);
  t.Occupy(h, 0, 5);  // second reference (net sharing)
  t.Release(h, 0, 5);
  EXPECT_EQ(t.Load(h, 0), 1) << "still referenced once";
  t.Release(h, 0, 5);
  EXPECT_EQ(t.Load(h, 0), 0);
}

TEST(Router, DirectNeighbourOneCycle) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 2);
  RouteRequest req;
  req.from_cell = arch.CellAt(0, 0);
  req.from_time = 0;
  req.to_cell = arch.CellAt(0, 1);
  req.to_time = 1;
  req.value = 0;
  const auto route = RouteValue(mrrg, t, req);
  ASSERT_TRUE(route.ok()) << route.error().message;
  // One step: the value sits in the producer's hold, read directly.
  ASSERT_EQ(route->steps.size(), 1u);
  EXPECT_EQ(route->steps[0].node, mrrg.HoldNode(req.from_cell));
  EXPECT_EQ(route->steps[0].time, 1);
}

TEST(Router, WaitsInRegisterForLateConsumer) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 8);
  RouteRequest req;
  req.from_cell = 0;
  req.from_time = 0;
  req.to_cell = 0;
  req.to_time = 4;
  req.value = 0;
  const auto route = RouteValue(mrrg, t, req);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->steps.size(), 4u) << "held cycles 1..4";
  for (const auto& s : route->steps) {
    EXPECT_EQ(s.node, mrrg.HoldNode(0));
  }
}

TEST(Router, MultiHopThroughRoutingChannels) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 8);
  RouteRequest req;
  req.from_cell = arch.CellAt(0, 0);
  req.from_time = 0;
  req.to_cell = arch.CellAt(0, 3);  // 3 hops away; reader covers 1 hop
  req.to_time = 3;
  req.value = 1;
  const auto route = RouteValue(mrrg, t, req);
  ASSERT_TRUE(route.ok()) << route.error().message;
  // Needs at least 2 routed hops to reach a hold adjacent to (0,3).
  int rts = 0;
  for (const auto& s : route->steps) {
    if (mrrg.node(s.node).kind == Mrrg::Kind::kRt) ++rts;
  }
  EXPECT_GE(rts, 2);
}

TEST(Router, ImpossibleLatencyFails) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 2);
  RouteRequest req;
  req.from_cell = 0;
  req.from_time = 3;
  req.to_cell = 1;
  req.to_time = 3;  // same cycle: latency 0 < 1
  req.value = 0;
  EXPECT_FALSE(RouteValue(mrrg, t, req).ok());
}

TEST(Router, TooFarForDeadlineFails) {
  const Architecture arch = Architecture::Big8x8();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 4);
  RouteRequest req;
  req.from_cell = arch.CellAt(0, 0);
  req.from_time = 0;
  req.to_cell = arch.CellAt(7, 7);  // 14 hops
  req.to_time = 2;                  // only 2 cycles
  req.value = 0;
  EXPECT_FALSE(RouteValue(mrrg, t, req).ok());
}

// (0,0) keeps its link into (0,1), so it stays one of (0,1)'s readers,
// but every link into (0,0) is cut: no producer can reach it. That
// reader must not weaken A*'s deadline prune, so each search matches,
// push for push, the one on a fabric where (0,0) is no reader at all.
TEST(Router, UnreachableReaderKeepsAStarPrune) {
  const Architecture base = Architecture::Adres4x4();
  const int corner = base.CellAt(0, 0);
  const int consumer = base.CellAt(0, 1);
  const int producer = base.CellAt(3, 3);
  FaultModel cut_in;
  cut_in.KillLink(consumer, corner);
  cut_in.KillLink(base.CellAt(1, 0), corner);
  FaultModel cut_all = cut_in;
  cut_all.KillLink(corner, consumer);
  const Architecture with_reader = base.WithFaults(cut_in);
  const Architecture without_reader = base.WithFaults(cut_all);
  ASSERT_EQ(with_reader.ReadableFrom(consumer).size(), 4u);
  ASSERT_EQ(without_reader.ReadableFrom(consumer).size(), 3u);

  const Mrrg with_mrrg(with_reader);
  const Mrrg without_mrrg(without_reader);
  // (0,2) and (1,1) are four hops from (3,3); (0,0) is unreachable.
  EXPECT_EQ(HopsToReader(with_mrrg, with_mrrg.HoldNode(producer), consumer), 4);
  EXPECT_EQ(HopsToReader(with_mrrg, with_mrrg.HoldNode(producer), corner), -1);

  RouterOptions astar;
  astar.use_heuristic = true;
  // One cycle short of the bound, exactly on it, and with slack.
  for (const int to_time : {4, 5, 8}) {
    std::uint64_t pushes[2] = {0, 0};
    std::vector<RouteStep> steps[2];
    int i = 0;
    for (const Mrrg* mrrg : {&with_mrrg, &without_mrrg}) {
      ResourceTracker t(*mrrg, 2);
      RouteRequest req;
      req.from_cell = producer;
      req.from_time = 0;
      req.to_cell = consumer;
      req.to_time = to_time;
      req.value = 0;
      const PerfCounters before = ThreadPerfCounters();
      const auto route = RouteValue(*mrrg, t, req, astar);
      pushes[i] = (ThreadPerfCounters() - before).router_pushes;
      if (route.ok()) steps[i] = route->steps;
      EXPECT_EQ(route.ok(), to_time >= 5) << "to_time " << to_time;
      ++i;
    }
    EXPECT_EQ(pushes[0], pushes[1]) << "to_time " << to_time;
    EXPECT_EQ(steps[0], steps[1]) << "to_time " << to_time;
  }
}

TEST(Router, CongestionForcesDetourOrFailure) {
  // Saturate the single route channel of the intermediate cell, then
  // ask for a 2-hop route in exactly 2 cycles at II=1.
  ArchParams p;
  p.rows = 1;
  p.cols = 3;
  p.route_channels = 1;
  p.rf_size = 4;
  const Architecture arch{p};
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 1);
  // Block RT of the middle cell at slot 0 with a foreign value.
  t.Occupy(mrrg.RtNode(1), 0, /*value=*/99);
  RouteRequest req;
  req.from_cell = 0;
  req.from_time = 0;
  req.to_cell = 2;
  req.to_time = 2;
  req.value = 1;
  // In a 1x3 row the only 2-cycle path crosses RT(1): must fail.
  EXPECT_FALSE(RouteValue(mrrg, t, req).ok());
}

TEST(Router, ReleaseRouteRestoresCapacity) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 1);
  RouteRequest req;
  req.from_cell = 0;
  req.from_time = 0;
  req.to_cell = 1;
  req.to_time = 1;
  req.value = 3;
  const auto route = RouteValue(mrrg, t, req);
  ASSERT_TRUE(route.ok());
  ReleaseRoute(t, *route, 3);
  EXPECT_EQ(t.Load(mrrg.HoldNode(0), 0), 0);
}

TEST(PlaceRoute, PlacesChainAndFinalizes) {
  Kernel k = MakeVecAdd(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  PlaceRouteState state(k.dfg, arch, mrrg, /*ii=*/1);
  // vecadd: a(in), b(in), sum, out. At II=1 every op needs its own
  // cell; sum sits between its producers so both holds are readable.
  ASSERT_EQ(state.MappableOps().size(), 4u);
  EXPECT_TRUE(state.TryPlace(0, arch.CellAt(0, 1), 0));
  EXPECT_TRUE(state.TryPlace(1, arch.CellAt(1, 0), 0));
  EXPECT_TRUE(state.TryPlace(2, arch.CellAt(1, 1), 1)) << "reads both holds";
  // The output op needs a border (I/O) cell: two routed hops away.
  EXPECT_TRUE(state.TryPlace(3, arch.CellAt(3, 1), 3));
  const Mapping m = state.Finalize();
  EXPECT_TRUE(ValidateMapping(k.dfg, arch, m).ok());
  EXPECT_EQ(m.length, 4);
}

TEST(PlaceRoute, FuConflictRejected) {
  Kernel k = MakeVecAdd(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  PlaceRouteState state(k.dfg, arch, mrrg, 2);
  ASSERT_TRUE(state.TryPlace(0, 0, 0));
  EXPECT_FALSE(state.TryPlace(1, 0, 2)) << "same cell, same slot mod II";
  EXPECT_EQ(state.last_fail(), PlaceRouteState::FailReason::kFuBusy);
}

TEST(PlaceRoute, IncompatibleCellRejected) {
  Kernel k = MakeGemmMac(4, 1);  // has loads/stores
  const Architecture arch = Architecture::Hetero4x4();
  const Mrrg mrrg(arch);
  PlaceRouteState state(k.dfg, arch, mrrg, 2);
  // Op 1 is a load; column 1 has no memory.
  EXPECT_FALSE(state.TryPlace(1, arch.CellAt(0, 1), 0));
  EXPECT_EQ(state.last_fail(), PlaceRouteState::FailReason::kIncompatibleCell);
}

TEST(PlaceRoute, TimingViolationRejectedAndRolledBack) {
  Kernel k = MakeVecAdd(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  PlaceRouteState state(k.dfg, arch, mrrg, 4);
  ASSERT_TRUE(state.TryPlace(0, 0, 2));
  // Consumer (op 2, sum) before producer: must fail and roll back.
  EXPECT_FALSE(state.TryPlace(2, 1, 1));
  EXPECT_FALSE(state.IsPlaced(2));
  EXPECT_EQ(state.placed_count(), 1);
  // And succeed at a legal time.
  EXPECT_TRUE(state.TryPlace(1, 4, 2));
  EXPECT_TRUE(state.TryPlace(2, 0, 3));
}

TEST(PlaceRoute, UnplaceRestoresEverything) {
  Kernel k = MakeDotProduct(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  PlaceRouteState state(k.dfg, arch, mrrg, 1);
  ASSERT_TRUE(state.TryPlace(0, arch.CellAt(0, 0), 0));
  ASSERT_TRUE(state.TryPlace(1, arch.CellAt(0, 2), 0));
  ASSERT_TRUE(state.TryPlace(2, arch.CellAt(0, 1), 1));  // mul reads both
  state.Unplace(2);
  EXPECT_EQ(state.placed_count(), 2);
  // Re-placing at the same spot must succeed (resources were freed).
  EXPECT_TRUE(state.TryPlace(2, arch.CellAt(0, 1), 1));
}

TEST(PlaceRoute, BankPortsEnforced) {
  Kernel k = MakeGemmMac(4, 1);  // 3 loads + 1 store
  ArchParams p;
  p.rows = 4;
  p.cols = 4;
  p.num_banks = 1;
  p.bank_ports = 1;
  p.mem_on_left_col = true;
  const Architecture arch{p};
  const Mrrg mrrg(arch);
  PlaceRouteState state(k.dfg, arch, mrrg, /*ii=*/1);
  // Two memory ops in the same slot on bank 0: second must fail.
  ASSERT_TRUE(state.TryPlace(1, arch.CellAt(0, 0), 0));   // load A
  EXPECT_FALSE(state.TryPlace(2, arch.CellAt(1, 0), 0));  // load B same slot
  EXPECT_EQ(state.last_fail(), PlaceRouteState::FailReason::kBankPortConflict);
}

// An input `x` with two routed fanout edges (to outputs o1 and o2)
// plus an unrelated input `w` -> output o3. With one register per cell
// and II = 1, any step the failed placement of `x` left behind in the
// tracker would block `w` from latching into the same register.
// Members initialize in declaration order, `dfg` first.
struct FanoutFixture {
  Dfg dfg;
  OpId x = dfg.AddInput(0, "x");
  OpId o1 = dfg.AddOutput(x, 0, "o1");
  OpId o2 = dfg.AddOutput(x, 1, "o2");
  OpId w = dfg.AddInput(1, "w");
  OpId o3 = dfg.AddOutput(w, 2, "o3");
};

// Places `x` on (0,0) at cycle 0 with o1 one hop away and o2 on
// (`bad_row`, `bad_col`) at `bad_time`: the first edge routes, the
// second cannot. TryPlace must fail with `want` after exactly
// `want_queries` router calls, and the rolled-back state must then
// place and finalize exactly like a fresh one. The fabric is a 4x4
// mesh with one register per cell and `route_channels` channels.
void CheckFailedFanoutRollsBack(int route_channels, int bad_row, int bad_col,
                                int bad_time, PlaceRouteState::FailReason want,
                                std::uint64_t want_queries) {
  const FanoutFixture f;
  ArchParams params;
  params.rf_size = 1;
  params.route_channels = route_channels;
  const Architecture arch{params};
  const Mrrg mrrg(arch);
  const int origin = arch.CellAt(0, 0);

  PlaceRouteState state(f.dfg, arch, mrrg, /*ii=*/1);
  ASSERT_TRUE(state.TryPlace(f.o1, arch.CellAt(0, 1), 1));
  ASSERT_TRUE(state.TryPlace(f.o2, arch.CellAt(bad_row, bad_col), bad_time));
  const PerfCounters before = ThreadPerfCounters();
  EXPECT_FALSE(state.TryPlace(f.x, origin, 0));
  EXPECT_EQ(state.last_fail(), want);
  EXPECT_EQ((ThreadPerfCounters() - before).router_queries, want_queries);
  EXPECT_FALSE(state.IsPlaced(f.x));
  EXPECT_EQ(state.placed_count(), 2);
  state.Unplace(f.o2);

  PlaceRouteState fresh(f.dfg, arch, mrrg, /*ii=*/1);
  ASSERT_TRUE(fresh.TryPlace(f.o1, arch.CellAt(0, 1), 1));
  for (PlaceRouteState* s : {&state, &fresh}) {
    // `w` latches into the register `x`'s first route used.
    ASSERT_TRUE(s->TryPlace(f.w, origin, 0));
    ASSERT_TRUE(s->TryPlace(f.o3, arch.CellAt(1, 0), 1));
    ASSERT_TRUE(s->TryPlace(f.o2, arch.CellAt(0, 3), 1));
    ASSERT_TRUE(s->TryPlace(f.x, arch.CellAt(0, 2), 0));
  }
  const Mapping got = state.Finalize();
  const Mapping want_mapping = fresh.Finalize();
  EXPECT_TRUE(ValidateMapping(f.dfg, arch, got).ok());
  ASSERT_EQ(got.place.size(), want_mapping.place.size());
  for (size_t i = 0; i < got.place.size(); ++i) {
    EXPECT_EQ(got.place[i].cell, want_mapping.place[i].cell) << "op " << i;
    EXPECT_EQ(got.place[i].time, want_mapping.place[i].time) << "op " << i;
  }
  ASSERT_EQ(got.routes.size(), want_mapping.routes.size());
  for (size_t e = 0; e < got.routes.size(); ++e) {
    EXPECT_EQ(got.routes[e].steps, want_mapping.routes[e].steps) << "edge " << e;
  }
  EXPECT_EQ(got.length, want_mapping.length);
}

TEST(PlaceRoute, FanoutTimingFailureRollsBackRoutedEdge) {
  // o2 issues in x's own cycle: the edge is checked, never routed.
  CheckFailedFanoutRollsBack(1, 0, 3, 0,
                             PlaceRouteState::FailReason::kTimingViolated, 1);
}

TEST(PlaceRoute, FanoutDistanceFailureRollsBackRoutedEdge) {
  // o2's nearest reader is five hops away but o2 reads x one cycle
  // after it issues: the fabric distance rejects the edge unrouted.
  CheckFailedFanoutRollsBack(1, 3, 3, 1,
                             PlaceRouteState::FailReason::kTimingViolated, 1);
}

TEST(PlaceRoute, FanoutRouteFailureRollsBackRoutedEdge) {
  // o2 reads x's own register one cycle late, inside the hop window.
  // Without routing channels x must wait there a second cycle, which
  // at II = 1 is a second live copy in a one-register file.
  CheckFailedFanoutRollsBack(0, 1, 0, 2,
                             PlaceRouteState::FailReason::kRouteCongested, 2);
}

TEST(Validator, RejectsCorruptedMappings) {
  Kernel k = MakeVecAdd(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  PlaceRouteState state(k.dfg, arch, mrrg, 1);
  ASSERT_TRUE(state.TryPlace(0, arch.CellAt(0, 1), 0));
  ASSERT_TRUE(state.TryPlace(1, arch.CellAt(1, 0), 0));
  ASSERT_TRUE(state.TryPlace(2, arch.CellAt(1, 1), 1));
  ASSERT_TRUE(state.TryPlace(3, arch.CellAt(3, 1), 3));
  Mapping good = state.Finalize();
  ASSERT_TRUE(ValidateMapping(k.dfg, arch, good).ok());

  {
    Mapping bad = good;  // move an op off its route
    bad.place[2].cell = arch.CellAt(3, 3);
    EXPECT_FALSE(ValidateMapping(k.dfg, arch, bad).ok());
  }
  {
    Mapping bad = good;  // break a route step
    for (auto& r : bad.routes) {
      if (!r.steps.empty()) {
        r.steps.back().time += 1;
        break;
      }
    }
    EXPECT_FALSE(ValidateMapping(k.dfg, arch, bad).ok());
  }
  {
    Mapping bad = good;  // II beyond config memory
    bad.ii = arch.MaxIi() + 1;
    EXPECT_FALSE(ValidateMapping(k.dfg, arch, bad).ok());
  }
  {
    Mapping bad = good;  // drop a route entirely
    for (auto& r : bad.routes) r.steps.clear();
    EXPECT_FALSE(ValidateMapping(k.dfg, arch, bad).ok());
  }
}

TEST(Validator, CatchesFuDoubleBooking) {
  Kernel k = MakeVecAdd(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  PlaceRouteState state(k.dfg, arch, mrrg, 2);
  ASSERT_TRUE(state.TryPlace(0, arch.CellAt(0, 1), 0));
  ASSERT_TRUE(state.TryPlace(1, arch.CellAt(1, 0), 0));
  ASSERT_TRUE(state.TryPlace(2, arch.CellAt(1, 1), 1));
  ASSERT_TRUE(state.TryPlace(3, arch.CellAt(3, 1), 3));
  Mapping bad = state.Finalize();
  bad.place[1] = bad.place[0];  // two inputs on one (cell, slot)
  EXPECT_FALSE(ValidateMapping(k.dfg, arch, bad).ok());
}

TEST(Stats, ComputedFromMapping) {
  Kernel k = MakeVecAdd(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  PlaceRouteState state(k.dfg, arch, mrrg, 1);
  ASSERT_TRUE(state.TryPlace(0, arch.CellAt(0, 1), 0));
  ASSERT_TRUE(state.TryPlace(1, arch.CellAt(1, 0), 0));
  ASSERT_TRUE(state.TryPlace(2, arch.CellAt(1, 1), 1));
  ASSERT_TRUE(state.TryPlace(3, arch.CellAt(3, 1), 3));
  const Mapping m = state.Finalize();
  const MappingStats s = ComputeStats(k.dfg, arch, m);
  EXPECT_EQ(s.ii, 1);
  EXPECT_EQ(s.ops_mapped, 4);
  EXPECT_EQ(s.cells_used, 4);
  EXPECT_GT(s.route_steps, 0);
  EXPECT_GT(s.energy_proxy, 0);
  const std::string table = RenderSchedule(k.dfg, arch, m);
  EXPECT_NE(table.find("sum"), std::string::npos);
}

}  // namespace
}  // namespace cgra
