// Golden and property tests for the flat-state routing hot path.
//
// The router and tracker were rewritten from per-query hash maps to
// epoch-stamped flat arenas (see docs/PERF.md). These tests pin the
// rewrite down from three directions:
//   * golden digests — a deterministic query stream and the full
//     deterministic-mapper portfolio must reproduce, bit for bit, the
//     routes the pre-rewrite Dijkstra router produced (the hex
//     constants below were captured from the last hash-map build);
//   * arena epochs — scratch reuse across queries, II escalation, and
//     uint32 epoch wrap-around must never leak a stale best/parent
//     entry into a later query;
//   * tracker properties — the inline-block + spill storage must agree
//     with a naive reference model under random occupy/release traffic,
//     including fault-gated SlotUsable and >kInlineOccupants spilling.
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "arch/arch.hpp"
#include "arch/fault.hpp"
#include "arch/mrrg.hpp"
#include "ir/kernels.hpp"
#include "mappers/registry.hpp"
#include "mapping/mapping.hpp"
#include "mapping/router.hpp"
#include "mapping/tracker.hpp"
#include "support/rng.hpp"

namespace cgra {
namespace {

// ---- digest helpers ---------------------------------------------------------
// FNV-1a 64-bit. MUST stay in sync with the copy in bench/perf_suite.cpp
// (the golden constants below were produced with exactly this hash).

std::uint64_t HashU64(std::uint64_t h, std::uint64_t x) {
  h ^= x;
  h *= 1099511628211ull;
  return h;
}

std::uint64_t RouteDigest(const Route& r) {
  std::uint64_t h = 1469598103934665603ull;
  h = HashU64(h, static_cast<std::uint64_t>(r.steps.size()));
  for (const RouteStep& s : r.steps) {
    h = HashU64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(s.node)));
    h = HashU64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(s.time)));
  }
  return h;
}

std::uint64_t MappingDigest(const Mapping& m) {
  std::uint64_t h = 1469598103934665603ull;
  h = HashU64(h, static_cast<std::uint64_t>(m.ii));
  h = HashU64(h, static_cast<std::uint64_t>(m.length));
  for (const Placement& p : m.place) {
    h = HashU64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.cell)));
    h = HashU64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.time)));
  }
  for (const Route& r : m.routes) {
    h = HashU64(h, static_cast<std::uint64_t>(r.steps.size()));
    for (const RouteStep& s : r.steps) {
      h = HashU64(h,
                  static_cast<std::uint64_t>(static_cast<std::int64_t>(s.node)));
      h = HashU64(h,
                  static_cast<std::uint64_t>(static_cast<std::int64_t>(s.time)));
    }
  }
  return h;
}

// The deterministic query stream of the router microbenchmark. MUST
// stay in sync with the copy in bench/perf_suite.cpp — the golden
// digests pin this exact stream.
std::uint64_t RouterMicroDigest(const Architecture& arch, int ii, int rounds,
                                bool ignore_capacity, long long* routed_out) {
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, ii);
  Rng rng(0xC0FFEEull + static_cast<unsigned>(ii));
  RouterOptions opts;
  opts.ignore_capacity = ignore_capacity;
  std::uint64_t digest = 1469598103934665603ull;
  long long routed = 0;
  std::vector<std::pair<Route, ValueId>> held;
  for (int r = 0; r < rounds; ++r) {
    if ((r & 63) == 0 && !ignore_capacity) {
      tracker.Reset();
      held.clear();
    }
    RouteRequest req;
    req.from_cell =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
    req.to_cell =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
    req.from_time = static_cast<int>(rng.NextIndex(static_cast<size_t>(ii)));
    const int hops = arch.HopDistance(req.from_cell, req.to_cell);
    req.to_time =
        req.from_time + 1 + hops + static_cast<int>(rng.NextIndex(4));
    req.value = static_cast<ValueId>(r & 1023);
    auto route = RouteValue(mrrg, tracker, req, opts);
    if (route.ok()) {
      ++routed;
      digest = HashU64(digest, RouteDigest(*route));
      if (!ignore_capacity) {
        if (rng.NextBool(0.5)) {
          held.emplace_back(std::move(route).value(), req.value);
        } else {
          ReleaseRoute(tracker, *route, req.value);
        }
      }
    }
  }
  if (routed_out) *routed_out = routed;
  return digest;
}

// ---- golden route streams ---------------------------------------------------
// Captured from the pre-rewrite hash-map router (same seeds, same
// stream). The flat-arena router must reproduce them exactly.

TEST(RouterGolden, MicroStreamAdres4x4Ii2) {
  long long routed = 0;
  EXPECT_EQ(RouterMicroDigest(Architecture::Adres4x4(), 2, 40000, false,
                              &routed),
            0x1ab5b88775a449b5ull);
  EXPECT_EQ(routed, 21527);
}

TEST(RouterGolden, MicroStreamAdres4x4Ii4) {
  long long routed = 0;
  EXPECT_EQ(RouterMicroDigest(Architecture::Adres4x4(), 4, 40000, false,
                              &routed),
            0x89e27976f1b18e19ull);
  EXPECT_EQ(routed, 32857);
}

TEST(RouterGolden, MicroStreamBig8x8Ii2) {
  long long routed = 0;
  EXPECT_EQ(RouterMicroDigest(Architecture::Big8x8(), 2, 20000, false,
                              &routed),
            0x803482dff50a7fabull);
  EXPECT_EQ(routed, 12761);
}

TEST(RouterGolden, MicroStreamBlindMode) {
  // DRESC-style capacity-blind negotiation (tracker never consulted).
  long long routed = 0;
  EXPECT_EQ(RouterMicroDigest(Architecture::Adres4x4(), 4, 20000, true,
                              &routed),
            0x9a0d91c2993dba24ull);
  EXPECT_EQ(routed, 20000);
}

// ---- golden mapper digests --------------------------------------------------
// Full portfolio of deterministic(-for-a-fixed-seed) mappers over the
// tiny kernel suite, captured from the pre-rewrite build. Changing the
// router's tie-breaking, the tracker's admission order, or a mapper's
// RNG consumption will show up here.

struct MapperGolden {
  const char* mapper;
  const char* kernel;
  std::uint64_t digest;
};

void CheckMapperGoldens(const Architecture& arch,
                        const std::vector<MapperGolden>& goldens) {
  const auto kernels = TinyKernelSuite();
  auto find_kernel = [&](const std::string& name) -> const Kernel* {
    for (const Kernel& k : kernels) {
      if (k.name == name) return &k;
    }
    return nullptr;
  };
  for (const MapperGolden& g : goldens) {
    const Mapper* mapper = MapperRegistry::Global().Find(g.mapper);
    ASSERT_NE(mapper, nullptr) << g.mapper;
    const Kernel* kernel = find_kernel(g.kernel);
    ASSERT_NE(kernel, nullptr) << g.kernel;
    MapperOptions opts;
    opts.seed = 42;
    auto m = mapper->Map(kernel->dfg, arch, opts);
    ASSERT_TRUE(m.ok()) << g.mapper << "/" << g.kernel << ": "
                        << m.error().message;
    EXPECT_EQ(MappingDigest(*m), g.digest) << g.mapper << "/" << g.kernel;
  }
}

TEST(RouterGolden, DeterministicMappersAdres4x4) {
  CheckMapperGoldens(
      Architecture::Adres4x4(),
      {
          {"greedy-spatial", "vecadd", 0xaa13142054cba1a1ull},
          {"greedy-spatial", "dot_product", 0x19f6fed0bd502f81ull},
          {"greedy-spatial", "saxpy", 0x4ccfa267edb70cd0ull},
          {"greedy-spatial", "relu_scale", 0x017842f28f0ba080ull},
          {"greedy-spatial", "butterfly", 0x8aff3b014d31c486ull},
          {"ims", "vecadd", 0xaa13142054cba1a1ull},
          {"ims", "dot_product", 0x19f6fed0bd502f81ull},
          {"ims", "butterfly", 0xca95338201e8dd19ull},
          {"ems", "saxpy", 0x4ccfa267edb70cd0ull},
          {"ems", "relu_scale", 0x017842f28f0ba080ull},
          {"ems", "butterfly", 0xca95338201e8dd19ull},
          {"ultrafast", "vecadd", 0xaa13142054cba1a1ull},
          {"ultrafast", "butterfly", 0x8aff3b014d31c486ull},
          {"bwd-beam", "vecadd", 0xfec592eae9db89f6ull},
          {"bwd-beam", "dot_product", 0x6de163890d92d4fbull},
          {"bwd-beam", "butterfly", 0xb8dad123f040fa78ull},
          {"epimap", "vecadd", 0x5b988e9814d31826ull},
          {"epimap", "saxpy", 0x9cfba73708768408ull},
          {"dresc-sa", "vecadd", 0x0f30ee283d69d58aull},
          {"dresc-sa", "dot_product", 0x7f96901013b516f2ull},
          {"crimson", "vecadd", 0x8d3dba1a913af0faull},
          {"crimson", "relu_scale", 0xd457f9b5dfab8096ull},
      });
}

TEST(RouterGolden, DeterministicMappersHetero4x4) {
  CheckMapperGoldens(
      Architecture::Hetero4x4(),
      {
          {"greedy-spatial", "relu_scale", 0x4d46798f02000907ull},
          {"greedy-spatial", "butterfly", 0x8aff3b014d31c486ull},
          {"ims", "saxpy", 0x4ccfa267edb70cd0ull},
          {"ems", "dot_product", 0x19f6fed0bd502f81ull},
          {"ultrafast", "relu_scale", 0x4d46798f02000907ull},
          {"bwd-beam", "saxpy", 0x2b545bacb8c03e13ull},
          {"epimap", "dot_product", 0xfe05cc5d17fa2ccdull},
          {"dresc-sa", "butterfly", 0x8d7ebfda42e5c74dull},
          {"crimson", "saxpy", 0xadbfc8b8bbadd24bull},
      });
}

// ---- A* heuristic equivalence -----------------------------------------------
// The heuristic may return a *different* route among equal-cost
// alternatives, but it must never change feasibility or route cost.

TEST(RouterHeuristic, SameFeasibilityAndCostAsDijkstra) {
  const Architecture arch = Architecture::Big8x8();
  const Mrrg mrrg(arch);
  const int ii = 4;
  ResourceTracker tracker(mrrg, ii);
  Rng rng(0xFEEDull);
  RouterOptions plain;
  RouterOptions astar;
  astar.use_heuristic = true;
  int routed = 0;
  for (int r = 0; r < 3000; ++r) {
    if ((r & 63) == 0) tracker.Reset();
    RouteRequest req;
    req.from_cell =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
    req.to_cell =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
    req.from_time = static_cast<int>(rng.NextIndex(static_cast<size_t>(ii)));
    const int hops = arch.HopDistance(req.from_cell, req.to_cell);
    req.to_time =
        req.from_time + 1 + hops + static_cast<int>(rng.NextIndex(4));
    req.value = static_cast<ValueId>(r & 255);
    // Route with A* against the same tracker state, undo, then route
    // with plain Dijkstra and keep that one, so both modes always see
    // identical occupancy.
    auto fast = RouteValue(mrrg, tracker, req, astar);
    if (fast.ok()) ReleaseRoute(tracker, *fast, req.value);
    auto slow = RouteValue(mrrg, tracker, req, plain);
    ASSERT_EQ(fast.ok(), slow.ok()) << "round " << r;
    if (slow.ok()) {
      ++routed;
      // Uniform step cost, so equal cost == equal step count.
      EXPECT_EQ(fast->steps.size(), slow->steps.size()) << "round " << r;
      if (rng.NextBool(0.5)) ReleaseRoute(tracker, *slow, req.value);
    }
  }
  EXPECT_GT(routed, 1000);  // the stream must actually exercise routing
}

TEST(RouterHeuristic, PrunesImpossibleDeadlinesToSameAnswer) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  RouteRequest req;
  req.from_cell = 0;
  req.to_cell = arch.num_cells() - 1;  // opposite corner
  req.from_time = 0;
  // One cycle is never enough to cross the fabric corner to corner.
  req.to_time = 1;
  req.value = 7;
  RouterOptions astar;
  astar.use_heuristic = true;
  EXPECT_FALSE(RouteValue(mrrg, tracker, req, astar).ok());
  EXPECT_FALSE(RouteValue(mrrg, tracker, req, RouterOptions{}).ok());
}

// ---- arena epochs -----------------------------------------------------------

// A fresh cold arena and a warm reused arena must produce identical
// routes for an identical query mix — if an epoch bump ever failed to
// invalidate a stale best/parent entry, the warm run would diverge.
TEST(RouterArena, WarmReuseMatchesColdArena) {
  const Architecture arch = Architecture::Adres4x4();
  auto run = [&](bool reset_between) {
    std::uint64_t digest = 1469598103934665603ull;
    // Interleave IIs so the packed (node, time, stay) layout changes
    // shape between consecutive queries — exactly the II-escalation
    // retry pattern that once produced stale-parent corruption.
    for (int round = 0; round < 6; ++round) {
      for (int ii : {2, 4, 3}) {
        if (reset_between) router_internal::ResetScratchForTest();
        const Mrrg mrrg(arch);
        ResourceTracker tracker(mrrg, ii);
        RouteRequest req;
        req.from_cell = round % arch.num_cells();
        req.to_cell = (round * 5 + ii) % arch.num_cells();
        req.from_time = round % ii;
        req.to_time = req.from_time + 1 +
                      arch.HopDistance(req.from_cell, req.to_cell) + round % 3;
        req.value = static_cast<ValueId>(round);
        auto route = RouteValue(mrrg, tracker, req);
        digest = HashU64(digest, route.ok() ? RouteDigest(*route) : 0);
      }
    }
    return digest;
  };
  router_internal::ResetScratchForTest();
  const std::uint64_t warm = run(/*reset_between=*/false);
  const std::uint64_t cold = run(/*reset_between=*/true);
  EXPECT_EQ(warm, cold);
}

TEST(RouterArena, EpochAdvancesAndArenaIsReusedWithoutGrowth) {
  router_internal::ResetScratchForTest();
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  RouteRequest req;
  req.from_cell = 0;
  req.to_cell = 5;
  req.from_time = 0;
  req.to_time = 1 + arch.HopDistance(0, 5);
  req.value = 1;
  ASSERT_TRUE(RouteValue(mrrg, tracker, req).ok());
  const auto first = router_internal::CurrentScratchStats();
  EXPECT_GE(first.capacity, 1u);
  ReleaseRoute(tracker, *RouteValue(mrrg, tracker, req), req.value);
  tracker.Reset();
  ASSERT_TRUE(RouteValue(mrrg, tracker, req).ok());
  const auto second = router_internal::CurrentScratchStats();
  EXPECT_GT(second.epoch, first.epoch);          // every query stamps anew
  EXPECT_EQ(second.capacity, first.capacity);    // same shape: no realloc
  EXPECT_GT(second.reuses, first.reuses);        // ... so it was a warm reuse
  EXPECT_EQ(second.grows, first.grows);
}

TEST(RouterArena, EpochWrapAroundStaysCorrect) {
  router_internal::ResetScratchForTest();
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  RouteRequest req;
  req.from_cell = 3;
  req.to_cell = 12;
  req.from_time = 1;
  req.to_time = 2 + arch.HopDistance(3, 12);
  req.value = 9;
  auto before = RouteValue(mrrg, tracker, req);
  ASSERT_TRUE(before.ok());
  ReleaseRoute(tracker, *before, req.value);

  // Force the next query to wrap the 32-bit epoch counter: the arena
  // must clear its stamps instead of treating entries stamped with
  // epoch 0/1 from the pre-wrap era as valid.
  router_internal::SetEpochForTest(0xFFFFFFFFu);
  for (int i = 0; i < 3; ++i) {
    auto after = RouteValue(mrrg, tracker, req);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(RouteDigest(*after), RouteDigest(*before)) << "wrap step " << i;
    ReleaseRoute(tracker, *after, req.value);
    const auto stats = router_internal::CurrentScratchStats();
    EXPECT_NE(stats.epoch, 0u);
  }
}

TEST(RouterArena, EpochWrapClearsGoalAndHopStamps) {
  // Goal and hop-bound stamps share the query epoch. A query stamped
  // just after a reset uses the same epoch value as the first query
  // after a wrap, so the wrap must clear those stamps too: otherwise
  // the earlier query's goal set (and, under A*, its hop bounds toward
  // a different consumer) would leak into the later route.
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  RouterOptions opts;
  opts.use_heuristic = true;
  RouteRequest req;
  req.from_cell = 3;
  req.to_cell = 12;
  req.from_time = 1;
  req.to_time = 2 + arch.HopDistance(3, 12);
  req.value = 9;
  RouteRequest decoy = req;
  decoy.to_cell = 0;
  decoy.to_time = req.to_time + 2;

  router_internal::ResetScratchForTest();
  auto cold = RouteValue(mrrg, tracker, req, opts);
  ASSERT_TRUE(cold.ok());
  ReleaseRoute(tracker, *cold, req.value);

  router_internal::ResetScratchForTest();
  auto stale = RouteValue(mrrg, tracker, decoy, opts);
  ASSERT_TRUE(stale.ok());
  ReleaseRoute(tracker, *stale, decoy.value);
  router_internal::SetEpochForTest(0xFFFFFFFFu);
  auto after = RouteValue(mrrg, tracker, req, opts);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(router_internal::CurrentScratchStats().epoch, 1u);
  EXPECT_EQ(RouteDigest(*after), RouteDigest(*cold));
}

// ---- tracker properties -----------------------------------------------------

// Reference model: per (node mod-slot, value, absolute time) refcounts.
struct ModelTracker {
  std::map<std::tuple<int, int, ValueId, int>, int> refs;  // (node,s,value,t)
  int ii;

  explicit ModelTracker(int ii_in) : ii(ii_in) {}
  int Slot(int time) const { return ((time % ii) + ii) % ii; }
  int Load(int node, int s) const {
    int n = 0;
    for (const auto& [k, v] : refs) {
      if (std::get<0>(k) == node && std::get<1>(k) == s && v > 0) ++n;
    }
    return n;
  }
  bool CanOccupy(const Mrrg& mrrg, int node, int time, ValueId value) const {
    const int s = Slot(time);
    if (!mrrg.SlotUsable(node, s)) return false;
    auto it = refs.find({node, s, value, time});
    if (it != refs.end() && it->second > 0) return true;
    return Load(node, s) < mrrg.node(node).capacity;
  }
  void Occupy(int node, int time, ValueId value) {
    ++refs[{node, Slot(time), value, time}];
  }
  bool Release(int node, int time, ValueId value) {
    auto it = refs.find({node, Slot(time), value, time});
    if (it == refs.end() || it->second == 0) return false;
    if (--it->second == 0) refs.erase(it);
    return true;
  }
};

TEST(TrackerProperty, RandomTrafficMatchesReferenceModel) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  const int ii = 3;
  ResourceTracker tracker(mrrg, ii);
  ModelTracker model(ii);
  Rng rng(0xBADC0DEull);
  std::vector<std::tuple<int, int, ValueId>> live;
  for (int step = 0; step < 20000; ++step) {
    const int node =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(mrrg.num_nodes())));
    const int time = static_cast<int>(rng.NextIndex(12));
    const ValueId value = static_cast<ValueId>(rng.NextIndex(6));
    if (!live.empty() && rng.NextBool(0.45)) {
      const size_t pick = rng.NextIndex(live.size());
      auto [n, t, v] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(model.Release(n, t, v));
      tracker.Release(n, t, v);
    } else {
      // Keep admission semantics in lockstep too, not just counts.
      ASSERT_EQ(tracker.CanOccupy(node, time, value),
                model.CanOccupy(mrrg, node, time, value))
          << "step " << step;
      tracker.Occupy(node, time, value);
      model.Occupy(node, time, value);
      live.emplace_back(node, time, value);
    }
    if ((step & 255) == 0) {
      for (int n = 0; n < mrrg.num_nodes(); ++n) {
        for (int s = 0; s < ii; ++s) {
          ASSERT_EQ(tracker.Load(n, s), model.Load(n, s))
              << "step " << step << " node " << n << " slot " << s;
        }
      }
    }
  }
  // Drain and verify we end empty (all refcounts balanced).
  for (auto [n, t, v] : live) tracker.Release(n, t, v);
  for (int n = 0; n < mrrg.num_nodes(); ++n) {
    for (int s = 0; s < ii; ++s) EXPECT_EQ(tracker.Load(n, s), 0);
  }
  EXPECT_EQ(tracker.SpilledEntries(), 0);
}

TEST(TrackerProperty, SpillsBeyondInlineBlockAndBackfills) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  const int node = mrrg.HoldNode(0);
  const int n = ResourceTracker::kInlineOccupants + 3;
  // Occupy never enforces capacity (CanOccupy does); over-filling one
  // slot is exactly the transient the router creates while committing,
  // and it must spill rather than corrupt neighbouring slots.
  for (int v = 0; v < n; ++v) tracker.Occupy(node, 4, static_cast<ValueId>(v));
  EXPECT_EQ(tracker.Load(node, 0), n);
  EXPECT_EQ(tracker.SpilledEntries(), n - ResourceTracker::kInlineOccupants);
  EXPECT_EQ(tracker.Load(node, 1), 0);  // other slot untouched
  // Each occupant is findable while spilled.
  for (int v = 0; v < n; ++v) {
    EXPECT_TRUE(tracker.CanOccupy(node, 4, static_cast<ValueId>(v)));
  }
  // Release from the middle of the inline block: a spilled entry must
  // back-fill so the inline block stays dense.
  tracker.Release(node, 4, 1);
  tracker.Release(node, 4, 2);
  tracker.Release(node, 4, 0);
  EXPECT_EQ(tracker.Load(node, 0), n - 3);
  EXPECT_EQ(tracker.SpilledEntries(), 0);
  for (int v : {3, 4, 5, 6}) {
    EXPECT_TRUE(tracker.CanOccupy(node, 4, static_cast<ValueId>(v)));
  }
  for (int v : {3, 4, 5, 6}) tracker.Release(node, 4, static_cast<ValueId>(v));
  EXPECT_EQ(tracker.Load(node, 0), 0);
}

TEST(TrackerProperty, RefcountsSharedOccupancy) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  const int node = mrrg.HoldNode(3);
  // The same (value, absolute time) occupied three times — a net
  // fanning out over a shared prefix — counts once ...
  for (int i = 0; i < 3; ++i) tracker.Occupy(node, 6, 42);
  EXPECT_EQ(tracker.Load(node, 0), 1);
  // ... but the same value at time+II is a second iteration's copy and
  // takes a second capacity unit in the same modulo slot.
  tracker.Occupy(node, 8, 42);
  EXPECT_EQ(tracker.Load(node, 0), 2);
  tracker.Release(node, 8, 42);
  tracker.Release(node, 6, 42);
  tracker.Release(node, 6, 42);
  EXPECT_EQ(tracker.Load(node, 0), 1);  // one reference still held
  tracker.Release(node, 6, 42);
  EXPECT_EQ(tracker.Load(node, 0), 0);
}

// ---- word-parallel availability queries -------------------------------------
// The bitset planes must agree bit for bit with first-principles
// recomputation from SlotUsable/Load/capacity as traffic mutates them.

// What the avail bit is defined to mean, computed the slow way.
bool ReferenceAvail(const Mrrg& mrrg, const ResourceTracker& tracker,
                    int node, int slot) {
  return mrrg.SlotUsable(node, slot) &&
         tracker.Load(node, slot) < mrrg.capacity(node);
}

void CheckWordQueriesMatchReference(const Mrrg& mrrg,
                                    const ResourceTracker& tracker, int ii,
                                    const char* context) {
  const int n_nodes = mrrg.num_nodes();
  for (int t = 0; t < ii; ++t) {
    // Per-bit: AvailWord against the reference predicate.
    for (int n = 0; n < n_nodes; ++n) {
      const bool bit =
          (tracker.AvailWord(t, n >> 6) >> (n & 63)) & 1u;
      ASSERT_EQ(bit, ReferenceAvail(mrrg, tracker, n, t))
          << context << ": node " << n << " slot " << t;
    }
    // Range queries over every kind block and a few odd sub-ranges
    // (word-straddling begins/ends exercise RangeMask edges).
    const std::pair<int, int> ranges[] = {
        {mrrg.fu_begin(), mrrg.fu_begin() + mrrg.fu_count()},
        {mrrg.hold_begin(), mrrg.hold_begin() + mrrg.hold_count()},
        {mrrg.rt_begin(), mrrg.rt_begin() + mrrg.rt_count()},
        {0, n_nodes},
        {1, std::min(63, n_nodes)},
        {3, std::min(67, n_nodes)},
        {std::min(65, n_nodes), std::min(129, n_nodes)},
    };
    for (const auto& [b, e] : ranges) {
      if (b >= e) continue;
      int expected = 0;
      std::vector<int> expected_ids;
      for (int n = b; n < e; ++n) {
        if (ReferenceAvail(mrrg, tracker, n, t)) {
          ++expected;
          expected_ids.push_back(n);
        }
      }
      EXPECT_EQ(tracker.CountAvailable(t, b, e), expected)
          << context << ": range [" << b << "," << e << ") slot " << t;
      std::vector<int> got;
      tracker.ForEachAvailable(t, b, e, [&](int n) { got.push_back(n); });
      EXPECT_EQ(got, expected_ids)
          << context << ": range [" << b << "," << e << ") slot " << t;
    }
  }
}

TEST(TrackerBitset, WordQueriesMatchReferenceUnderRandomTraffic) {
  const Architecture arch = Architecture::Big8x8();  // >64 nodes: multi-word
  const Mrrg mrrg(arch);
  const int ii = 3;
  ResourceTracker tracker(mrrg, ii);
  ASSERT_GT(mrrg.num_nodes(), 64);  // the test must straddle words
  ASSERT_EQ(tracker.words_per_slot(), (mrrg.num_nodes() + 63) / 64);
  Rng rng(0xB17511ull);
  std::vector<std::tuple<int, int, ValueId>> live;
  CheckWordQueriesMatchReference(mrrg, tracker, ii, "initial");
  for (int step = 0; step < 4000; ++step) {
    const int node =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(mrrg.num_nodes())));
    const int time = static_cast<int>(rng.NextIndex(9));
    const ValueId value = static_cast<ValueId>(rng.NextIndex(5));
    if (!live.empty() && rng.NextBool(0.45)) {
      const size_t pick = rng.NextIndex(live.size());
      auto [n, t, v] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      tracker.Release(n, t, v);
    } else {
      tracker.Occupy(node, time, value);
      live.emplace_back(node, time, value);
    }
    if ((step & 511) == 0) {
      CheckWordQueriesMatchReference(mrrg, tracker, ii, "traffic");
    }
  }
  tracker.Reset();
  CheckWordQueriesMatchReference(mrrg, tracker, ii, "after Reset");
}

TEST(TrackerBitset, AvailClearsExactlyAtCapacity) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  const int ii = 2;
  ResourceTracker tracker(mrrg, ii);
  const int hold = mrrg.HoldNode(0);
  const int cap = mrrg.capacity(hold);
  ASSERT_GE(cap, 2);
  for (int v = 0; v < cap; ++v) {
    EXPECT_TRUE((tracker.AvailWord(0, hold >> 6) >> (hold & 63)) & 1u)
        << "after " << v << " occupants";
    tracker.Occupy(hold, 0, static_cast<ValueId>(v));
  }
  // Full: the avail bit drops, but existing occupants still pass the
  // slow path (already-ours) while new values are rejected.
  EXPECT_FALSE((tracker.AvailWord(0, hold >> 6) >> (hold & 63)) & 1u);
  EXPECT_TRUE(tracker.CanOccupy(hold, 0, 0));
  EXPECT_FALSE(tracker.CanOccupy(hold, 0, static_cast<ValueId>(cap)));
  // Over-fill past capacity (router commit transient), then drain: the
  // bit must come back exactly when the count re-crosses capacity.
  tracker.Occupy(hold, 0, static_cast<ValueId>(cap));
  EXPECT_FALSE((tracker.AvailWord(0, hold >> 6) >> (hold & 63)) & 1u);
  for (int v = cap; v >= 0; --v) {
    tracker.Release(hold, 0, static_cast<ValueId>(v));
    const bool bit = (tracker.AvailWord(0, hold >> 6) >> (hold & 63)) & 1u;
    EXPECT_EQ(bit, tracker.Load(hold, 0) < cap) << "after releasing " << v;
  }
  EXPECT_TRUE((tracker.AvailWord(0, hold >> 6) >> (hold & 63)) & 1u);
}

TEST(TrackerBitset, FaultGatedSlotsNeverBecomeAvailable) {
  FaultModel fm;
  fm.KillContextSlot(/*cell=*/2, /*slot=*/0);
  const Architecture arch = Architecture::Adres4x4().WithFaults(fm);
  const Mrrg mrrg(arch);
  const int ii = 2;
  ResourceTracker tracker(mrrg, ii);
  const int fu = mrrg.FuNode(2);
  EXPECT_FALSE((tracker.AvailWord(0, fu >> 6) >> (fu & 63)) & 1u);
  EXPECT_TRUE((tracker.AvailWord(1, fu >> 6) >> (fu & 63)) & 1u);
  EXPECT_EQ(tracker.CountAvailable(0, fu, fu + 1), 0);
  EXPECT_EQ(tracker.CountAvailable(1, fu, fu + 1), 1);
  // Occupy/Release churn on the dead slot must not resurrect it.
  tracker.Occupy(fu, 0, 1);
  tracker.Release(fu, 0, 1);
  EXPECT_FALSE((tracker.AvailWord(0, fu >> 6) >> (fu & 63)) & 1u);
  tracker.Reset();
  EXPECT_FALSE((tracker.AvailWord(0, fu >> 6) >> (fu & 63)) & 1u);
  CheckWordQueriesMatchReference(mrrg, tracker, ii, "faulted fabric");
}

TEST(TrackerProperty, FaultGatedSlotUnusable) {
  FaultModel fm;
  fm.KillContextSlot(/*cell=*/5, /*slot=*/1);
  const Architecture arch = Architecture::Adres4x4().WithFaults(fm);
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  const int fu = mrrg.FuNode(5);
  // The corrupt config word kills the FU in modulo slot 1 only.
  EXPECT_FALSE(mrrg.SlotUsable(fu, 1));
  EXPECT_FALSE(tracker.CanOccupy(fu, 1, 3));
  EXPECT_FALSE(tracker.CanOccupy(fu, 3, 3));  // 3 mod 2 == 1
  EXPECT_TRUE(tracker.CanOccupy(fu, 0, 3));
  EXPECT_TRUE(tracker.CanOccupy(fu, 2, 3));
  EXPECT_EQ(tracker.Headroom(fu, 1), 0);
  EXPECT_GT(tracker.Headroom(fu, 0), 0);
  // Register files retain values without a config word: never gated.
  const int hold = mrrg.HoldNode(5);
  EXPECT_TRUE(tracker.CanOccupy(hold, 1, 3));
}

}  // namespace
}  // namespace cgra
