#include "mappers/common.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

#include "graph/algos.hpp"
#include "mapping/perf.hpp"
#include "support/str.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace cgra {
namespace {

/// Attempt-level metrics, registered once. These are the numbers the
/// batch report's metrics snapshot and the Prometheus dump aggregate
/// across every mapper in the process (docs/OBSERVABILITY.md).
struct AttemptMetrics {
  telemetry::Counter& ok = telemetry::MetricsRegistry::Global().GetCounter(
      "cgra_attempt_ok_total", "II attempts that produced a mapping");
  telemetry::Counter& fail = telemetry::MetricsRegistry::Global().GetCounter(
      "cgra_attempt_fail_total", "II attempts that failed");
  telemetry::Histogram& seconds =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "cgra_attempt_seconds",
          {0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0},
          "wall time of one II attempt");
  telemetry::Histogram& ii = telemetry::MetricsRegistry::Global().GetHistogram(
      "cgra_attempt_ii", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32},
      "achieved II of successful attempts");
  telemetry::Histogram& router_queries =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "cgra_attempt_router_queries",
          {10, 100, 1000, 10000, 100000, 1000000},
          "router queries issued by one II attempt");
};

AttemptMetrics& Metrics() {
  static AttemptMetrics m;
  return m;
}

void ObserveAttemptMetrics(bool ok, int ii, double seconds,
                           const PerfCounters& perf) {
  AttemptMetrics& m = Metrics();
  (ok ? m.ok : m.fail).Add(1);
  m.seconds.Observe(seconds);
  if (ok) m.ii.Observe(static_cast<double>(ii));
  m.router_queries.Observe(static_cast<double>(perf.router_queries));
}

// The bracket around one observed attempt at `ii`, shared by
// EscalateIi and ObservedAttempt: the start event, the PerfCounters
// snapshot, the correlation id, the SearchLog install, the span, the
// done event and the attempt metrics.
template <typename Attempt>
Result<Mapping> BracketAttempt(const std::string& name,
                               const MapperOptions& options, int ii,
                               const Attempt& attempt) {
  MapEvent start;
  start.kind = MapEvent::Kind::kAttemptStart;
  start.mapper = name;
  start.ii = ii;
  NotifyObserver(options.observer, start);

  const PerfCounters perf_before = ThreadPerfCounters();
  WallTimer timer;
  // The span and the kAttemptDone event share one correlation id,
  // joining the MapTrace row to its trace spans.
  const std::uint64_t correlation =
      telemetry::Enabled() ? telemetry::NewCorrelation() : 0;
  // Search introspection: one collector per attempt, installed in the
  // thread-local slot for the attempt's extent only. Gated on an
  // observer being present — without one the log would have nowhere
  // to go.
  std::shared_ptr<telemetry::SearchLog> search;
  if (options.search_log && options.observer != nullptr &&
      telemetry::GetSearchDetail() != telemetry::SearchDetail::kOff) {
    search = std::make_shared<telemetry::SearchLog>();
  }
  Result<Mapping> r = [&] {
    telemetry::Span span(
        "attempt",
        telemetry::Enabled() ? StrFormat("%s ii=%d", name.c_str(), ii) : "",
        correlation);
    telemetry::ScopedSearchLog scoped(search.get());
    return attempt();
  }();

  MapEvent done;
  done.kind = MapEvent::Kind::kAttemptDone;
  done.mapper = name;
  done.ii = ii;
  done.ok = r.ok();
  done.seconds = timer.Seconds();
  done.perf = ThreadPerfCounters() - perf_before;
  done.correlation = correlation;
  if (!r.ok()) {
    done.error_code = r.error().code;
    done.message = r.error().message;
  }
  if (search != nullptr && search->Any()) done.search = std::move(search);
  NotifyObserver(options.observer, done);
  ObserveAttemptMetrics(done.ok, ii, done.seconds, done.perf);
  return r;
}

// Dependence edges that constrain timing (edges from folded producers
// do not: immediates are available at every cycle).
std::vector<DfgEdge> TimingEdges(const Dfg& dfg, const Architecture& arch) {
  std::vector<DfgEdge> out;
  for (const DfgEdge& e : dfg.Edges(/*include_pred=*/true)) {
    if (!arch.IsFolded(dfg.op(e.from).opcode)) out.push_back(e);
  }
  return out;
}

}  // namespace

MiiBounds ComputeMii(const Dfg& dfg, const Architecture& arch, int max_ii) {
  MiiBounds b;
  // Resource MII per capability class.
  int n_mem_ops = 0, n_io_ops = 0, n_mul_ops = 0, n_alu_ops = 0;
  for (const Op& op : dfg.ops()) {
    if (arch.IsFolded(op.opcode)) continue;
    if (IsMemoryOp(op.opcode)) {
      ++n_mem_ops;
    } else if (IsIoOp(op.opcode)) {
      ++n_io_ops;
    } else if (op.opcode == Opcode::kMul || op.opcode == Opcode::kDiv) {
      ++n_mul_ops;
    } else {
      ++n_alu_ops;
    }
  }
  int mem_cells = 0, io_cells = 0, mul_cells = 0, alu_cells = 0;
  for (int c = 0; c < arch.num_cells(); ++c) {
    const CellCaps& caps = arch.caps(c);
    if (caps.mem) ++mem_cells;
    if (caps.io) ++io_cells;
    if (caps.mul) ++mul_cells;
    if (caps.alu) ++alu_cells;
  }
  auto class_mii = [](int ops, int cells) {
    if (ops == 0) return 1;
    if (cells == 0) return 1 << 20;  // impossible; caller surfaces it
    return (ops + cells - 1) / cells;
  };
  // Memory throughput is capped by bank ports as well as LSU cells.
  mem_cells = std::min(mem_cells,
                       arch.params().num_banks * arch.params().bank_ports);
  b.res_mii = std::max({class_mii(n_mem_ops, mem_cells),
                        class_mii(n_io_ops, io_cells),
                        class_mii(n_mul_ops, mul_cells),
                        // Every op ultimately needs an FU slot.
                        class_mii(n_mem_ops + n_io_ops + n_mul_ops + n_alu_ops,
                                  arch.num_cells())});

  // Recurrence MII over timing edges.
  const auto edges = TimingEdges(dfg, arch);
  Digraph g(dfg.num_ops());
  std::vector<int> lat, dist;
  for (const DfgEdge& e : edges) {
    g.AddEdge(e.from, e.to);
    lat.push_back(1);
    dist.push_back(e.distance);
  }
  b.rec_mii = RecurrenceMii(g, lat, dist, max_ii);
  return b;
}

std::vector<int> ModuloAsap(const Dfg& dfg, const Architecture& arch, int ii) {
  const auto edges = TimingEdges(dfg, arch);
  const int n = dfg.num_ops();
  std::vector<int> t(static_cast<size_t>(n), 0);
  for (int pass = 0; pass <= n; ++pass) {
    bool changed = false;
    for (const DfgEdge& e : edges) {
      const int lower = t[static_cast<size_t>(e.from)] + 1 - ii * e.distance;
      if (lower > t[static_cast<size_t>(e.to)]) {
        t[static_cast<size_t>(e.to)] = lower;
        changed = true;
      }
    }
    if (!changed) return t;
  }
  return {};  // positive cycle: recurrence infeasible at this II
}

std::vector<OpId> HeightPriorityOrder(const Dfg& dfg, const Architecture& arch) {
  // Height = longest same-iteration path to any sink (timing edges).
  Digraph g(dfg.num_ops());
  std::vector<std::int64_t> w;
  for (const DfgEdge& e : dfg.Edges(true)) {
    if (e.distance > 0) continue;
    if (arch.IsFolded(dfg.op(e.from).opcode)) continue;
    g.AddEdge(e.from, e.to);
    w.push_back(1);
  }
  const auto height = DagLongestPathToSinks(g, w);
  std::vector<OpId> order;
  for (OpId op = 0; op < dfg.num_ops(); ++op) {
    if (!arch.IsFolded(dfg.op(op).opcode)) order.push_back(op);
  }
  std::sort(order.begin(), order.end(), [&](OpId a, OpId b) {
    if (height[static_cast<size_t>(a)] != height[static_cast<size_t>(b)]) {
      return height[static_cast<size_t>(a)] > height[static_cast<size_t>(b)];
    }
    return a < b;
  });
  return order;
}

std::vector<std::vector<int>> CandidateCellTable(const Dfg& dfg,
                                                 const Architecture& arch,
                                                 const std::vector<int>* region) {
  std::vector<std::vector<int>> table(static_cast<size_t>(dfg.num_ops()));
  for (OpId op = 0; op < dfg.num_ops(); ++op) {
    if (arch.IsFolded(dfg.op(op).opcode)) continue;
    const auto& pool = region ? *region : [&] {
      static thread_local std::vector<int> all;
      all.clear();
      for (int c = 0; c < arch.num_cells(); ++c) all.push_back(c);
      return all;
    }();
    for (int c : pool) {
      if (arch.CanExecute(c, dfg.op(op))) {
        table[static_cast<size_t>(op)].push_back(c);
      }
    }
  }
  return table;
}

Status CheckMappable(const Dfg& dfg, const Architecture& arch) {
  for (OpId op = 0; op < dfg.num_ops(); ++op) {
    const Op& o = dfg.op(op);
    if (arch.IsFolded(o.opcode)) continue;
    if (o.opcode == Opcode::kIterIdx && !arch.params().has_hw_loop) {
      return Error::Unmappable(StrFormat(
          "op %s needs the loop counter but the fabric has no hardware loop "
          "unit (lower kIterIdx first)",
          o.name.c_str()));
    }
    bool any = false;
    for (int c = 0; c < arch.num_cells(); ++c) {
      if (arch.CanExecute(c, o)) {
        any = true;
        break;
      }
    }
    if (!any) {
      return Error::Unmappable(
          StrFormat("no cell can execute op %s (%s)", o.name.c_str(),
                    std::string(OpName(o.opcode)).c_str()));
    }
  }
  return Status::Ok();
}

Result<Mapping> ImsPlaceRoute(const Dfg& dfg, const Architecture& arch,
                              const Mrrg& mrrg, int ii,
                              const std::vector<OpId>& order,
                              const ImsOptions& options) {
  telemetry::Span phase_span("phase.place_route");
  const std::vector<int> est = [&] {
    telemetry::Span schedule_span("phase.schedule");
    return ModuloAsap(dfg, arch, ii);
  }();
  if (est.empty()) {
    return Error::Unmappable(StrFormat("recurrences infeasible at II=%d", ii));
  }
  PlaceRouteState state(dfg, arch, mrrg, ii);
  const auto candidates = options.candidate_cells
                              ? *options.candidate_cells
                              : CandidateCellTable(dfg, arch);

  // Rank = position in `order` (requeued ops keep their rank).
  std::vector<int> rank(static_cast<size_t>(dfg.num_ops()), 1 << 30);
  for (size_t i = 0; i < order.size(); ++i) rank[static_cast<size_t>(order[i])] = static_cast<int>(i);

  using QItem = std::pair<int, OpId>;  // (rank, op)
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
  std::vector<bool> queued(static_cast<size_t>(dfg.num_ops()), false);
  auto enqueue = [&](OpId op) {
    if (!queued[static_cast<size_t>(op)]) {
      queued[static_cast<size_t>(op)] = true;
      queue.push({rank[static_cast<size_t>(op)], op});
    }
  };
  for (OpId op : order) enqueue(op);

  const std::vector<DfgEdge> edges = dfg.Edges(true);
  std::vector<std::vector<int>> edges_of(static_cast<size_t>(dfg.num_ops()));
  for (size_t e = 0; e < edges.size(); ++e) {
    edges_of[static_cast<size_t>(edges[e].from)].push_back(static_cast<int>(e));
    if (edges[e].to != edges[e].from) {
      edges_of[static_cast<size_t>(edges[e].to)].push_back(static_cast<int>(e));
    }
  }

  int budget = options.eviction_budget_factor * static_cast<int>(order.size()) + 16;
  // Per-op "schedule no earlier than" floor, advanced on repeated failure.
  std::vector<int> floor_time(est.begin(), est.end());

  while (!queue.empty()) {
    if (options.stop.StopRequested()) {
      return Error::ResourceLimit("IMS cancelled");
    }
    if (options.deadline.Expired()) {
      return Error::ResourceLimit("IMS deadline expired");
    }
    const OpId op = queue.top().second;
    queue.pop();
    queued[static_cast<size_t>(op)] = false;

    // Dynamic window from placed neighbours.
    int t0 = floor_time[static_cast<size_t>(op)];
    int ub = 1 << 30;
    std::vector<OpId> upper_blockers;
    for (int ei : edges_of[static_cast<size_t>(op)]) {
      const DfgEdge& e = edges[static_cast<size_t>(ei)];
      if (e.to == op && e.from != op && state.IsPlaced(e.from) &&
          !arch.IsFolded(dfg.op(e.from).opcode)) {
        t0 = std::max(t0, state.placement(e.from).time + 1 - ii * e.distance);
      }
      if (e.from == op && e.to != op && state.IsPlaced(e.to)) {
        const int limit = state.placement(e.to).time - 1 + ii * e.distance;
        if (limit < ub) ub = limit;
        if (limit < t0) upper_blockers.push_back(e.to);
      }
    }

    bool placed = false;
    if (t0 <= ub) {
      // Affinity-ordered candidate cells.
      std::vector<int> cells = candidates[static_cast<size_t>(op)];
      if (options.rng) options.rng->Shuffle(cells);
      std::vector<long long> affinity(cells.size(), 0);
      for (size_t i = 0; i < cells.size(); ++i) {
        for (int ei : edges_of[static_cast<size_t>(op)]) {
          const DfgEdge& e = edges[static_cast<size_t>(ei)];
          const OpId other = e.from == op ? e.to : e.from;
          if (other != op && state.IsPlaced(other)) {
            affinity[i] += arch.HopDistance(cells[i], state.placement(other).cell);
          }
        }
      }
      std::vector<size_t> idx(cells.size());
      for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      std::stable_sort(idx.begin(), idx.end(),
                       [&](size_t a, size_t b) { return affinity[a] < affinity[b]; });

      // Window: the classic II slots plus slack start cycles — routing
      // and spatial (II=1) fabrics need room to slide before evicting.
      const int window_end = std::min(ub, t0 + ii - 1 + options.extra_slack);
      for (int t = t0; t <= window_end && !placed; ++t) {
        for (size_t i : idx) {
          if (state.TryPlace(op, cells[i], t)) {
            placed = true;
            break;
          }
        }
      }
    }

    if (!placed) {
      if (--budget <= 0) {
        return Error::ResourceLimit(
            StrFormat("IMS eviction budget exhausted at II=%d", ii));
      }
      // Evict the placed neighbours (and upper-bound blockers) that box
      // this op in, then retry; if nothing to evict, slide the window.
      std::vector<OpId> evict = upper_blockers;
      for (int ei : edges_of[static_cast<size_t>(op)]) {
        const DfgEdge& e = edges[static_cast<size_t>(ei)];
        const OpId other = e.from == op ? e.to : e.from;
        if (other != op && state.IsPlaced(other) &&
            !arch.IsFolded(dfg.op(other).opcode)) {
          evict.push_back(other);
        }
      }
      std::sort(evict.begin(), evict.end());
      evict.erase(std::unique(evict.begin(), evict.end()), evict.end());
      if (evict.empty()) {
        // No neighbours to blame: the window itself is congested.
        floor_time[static_cast<size_t>(op)] += 1;
        const int max_start =
            *std::max_element(est.begin(), est.end()) + ii + options.extra_slack;
        if (floor_time[static_cast<size_t>(op)] > max_start) {
          return Error::Unmappable(
              StrFormat("op %s cannot be scheduled at II=%d",
                        dfg.op(op).name.c_str(), ii));
        }
      } else {
        for (OpId victim : evict) {
          state.Unplace(victim);
          enqueue(victim);
        }
      }
      enqueue(op);
    }
  }

  Mapping m = state.Finalize();
  return m;
}

Result<Mapping> BindAtFixedTimes(const Dfg& dfg, const Architecture& arch,
                                 const Mrrg& mrrg, int ii,
                                 const std::vector<int>& times,
                                 const Deadline& deadline, int node_budget,
                                 const StopToken& stop) {
  telemetry::Span phase_span("phase.bind");
  PlaceRouteState state(dfg, arch, mrrg, ii);
  std::vector<OpId> order = state.MappableOps();
  std::sort(order.begin(), order.end(), [&](OpId a, OpId b) {
    return times[static_cast<size_t>(a)] != times[static_cast<size_t>(b)]
               ? times[static_cast<size_t>(a)] < times[static_cast<size_t>(b)]
               : a < b;
  });
  const auto candidates = CandidateCellTable(dfg, arch);
  const auto edges = dfg.Edges(true);
  int budget = node_budget;
  bool timed_out = false;

  std::function<bool(size_t)> dfs = [&](size_t depth) -> bool {
    if (depth == order.size()) return true;
    if (--budget <= 0 || deadline.Expired() || stop.StopRequested()) {
      timed_out = true;
      return false;
    }
    const OpId op = order[depth];
    // Affinity order: cells near already-placed neighbours first.
    std::vector<int> cells = candidates[static_cast<size_t>(op)];
    std::vector<long long> affinity(cells.size(), 0);
    for (size_t i = 0; i < cells.size(); ++i) {
      for (const DfgEdge& e : edges) {
        OpId other = kNoOp;
        if (e.from == op && e.to != op) other = e.to;
        if (e.to == op && e.from != op) other = e.from;
        if (other == kNoOp) continue;
        if (state.IsPlaced(other)) {
          affinity[i] += arch.HopDistance(cells[i], state.placement(other).cell);
        }
      }
    }
    std::vector<size_t> idx(cells.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(),
                     [&](size_t a, size_t b) { return affinity[a] < affinity[b]; });
    for (size_t i : idx) {
      if (state.TryPlace(op, cells[i], times[static_cast<size_t>(op)])) {
        if (dfs(depth + 1)) return true;
        state.Unplace(op);
        if (timed_out) return false;
      }
    }
    return false;
  };

  if (dfs(0)) return state.Finalize();
  if (timed_out) {
    return Error::ResourceLimit("fixed-time binding budget exhausted");
  }
  return Error::Unmappable("no binding exists for this schedule");
}

std::shared_ptr<const Mrrg> AcquireMrrg(const Architecture& arch,
                                        const MapperOptions& options) {
  if (options.mrrg_cache) return options.mrrg_cache->Get(arch);
  return std::make_shared<const Mrrg>(arch);
}

Result<Mapping> EscalateIi(const Mapper& self, const Dfg& dfg,
                           const Architecture& arch,
                           const MapperOptions& options,
                           const std::function<Result<Mapping>(int)>& attempt) {
  if (Status s = CheckMappable(dfg, arch); !s.ok()) return s.error();
  const int hi = std::min(options.max_ii, arch.MaxIi());
  const MiiBounds bounds = ComputeMii(dfg, arch, hi);
  const int lo = std::min(std::max(options.min_ii, bounds.mii()), hi);
  const std::string name = self.name();
  Error last = Error::Unmappable("no II attempted");
  for (int ii = lo; ii <= hi; ++ii) {
    if (options.stop.StopRequested()) {
      return Error::ResourceLimit("mapper cancelled during II escalation");
    }
    if (options.deadline.Expired()) {
      return Error::ResourceLimit("mapper deadline expired during II escalation");
    }
    Result<Mapping> r =
        BracketAttempt(name, options, ii, [&] { return attempt(ii); });
    if (r.ok()) return r;
    last = r.error();
  }
  return last;
}

Result<Mapping> ObservedAttempt(const Mapper& self,
                                const MapperOptions& options, int ii,
                                const std::function<Result<Mapping>()>& attempt) {
  if (options.stop.StopRequested()) {
    return Error::ResourceLimit("mapper cancelled before its attempt");
  }
  if (options.deadline.Expired()) {
    return Error::ResourceLimit("mapper deadline expired before its attempt");
  }
  return BracketAttempt(self.name(), options, ii, attempt);
}

void NoteSolverSteps(const Mapper& self, const MapperOptions& options, int ii,
                     std::string_view what, std::int64_t steps) {
  if (!options.observer) return;
  MapEvent note;
  note.kind = MapEvent::Kind::kNote;
  note.mapper = self.name();
  note.ii = ii;
  note.message = std::string(what);
  note.solver_steps = steps;
  NotifyObserver(options.observer, note);
}

}  // namespace cgra
