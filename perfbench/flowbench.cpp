// flowbench: the measuring half of the repository benchmark.
//
// Four modes, all driven by perfbench/run.py, which generates the
// inputs from the seed and turns the records printed here into metrics:
//
//   flowbench ready --jobs FILE
//       Set-up only: loads the job list and resolves every fabric, kernel
//       and request the run would use.
//
//   flowbench once --jobs FILE
//       Runs every job of FILE once through the whole compile flow
//       (arch -> MRRG -> kernel -> engine -> validate -> compile ->
//       encode/decode -> reference -> simulate -> compare) and prints one
//       JSON record per job. run.py runs each job this way first, in a
//       child process it can kill, to learn whether the job reaches a
//       verdict at all.
//
//   flowbench jobs  --jobs FILE --seconds S [--trace 0|1] [--spans FILE]
//       Runs every job of FILE through the same flow in interleaved
//       passes, one job at a time on this thread, and prints one JSON
//       record per execution. With --trace 1 the passes alternate between
//       untraced and traced; traced passes also read MapTrace, SearchLog,
//       PerfCounters and the library's telemetry spans.
//
//   flowbench serve --port P --stream FILE
//       Open-loop client for cgra_serve. Every line of FILE is a request
//       with a scheduled send offset. The in-process engine's answer for
//       each distinct body is computed first (the digest each response
//       must carry); then the requests are sent on schedule and one record
//       per request is printed.
//
// The job file is tab-separated:
//   name fabric kernel mappers(comma) deadline_s max_ii iterations data_seed
// The stream file is tab-separated:
//   offset_s body_json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/request.hpp"
#include "api/response.hpp"
#include "arch/arch.hpp"
#include "arch/context.hpp"
#include "arch/fault.hpp"
#include "arch/mrrg.hpp"
#include "arch/mrrg_cache.hpp"
#include "engine/engine.hpp"
#include "engine/trace.hpp"
#include "ir/interp.hpp"
#include "ir/kernels.hpp"
#include "mappers/common.hpp"
#include "mapping/mapping.hpp"
#include "mapping/validator.hpp"
#include "sim/compile.hpp"
#include "sim/harness.hpp"
#include "sim/simulator.hpp"
#include "support/http.hpp"
#include "support/json.hpp"
#include "telemetry/search_log.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cgra;
using Clock = std::chrono::steady_clock;

// Untraced passes of `flowbench jobs`, at least, whatever --seconds says.
// exact-solve's slow jobs fill a pass of about 12 s alone, so this sets
// its run length; each job's fastest of four passes spreads less from
// run to run than its fastest of three.
constexpr int kMinPasses = 4;
// Client threads of `flowbench serve`: enough that a slow answer does not
// hold back the next scheduled send.
constexpr int kServeClients = 16;
// Per-request timeout of `flowbench serve`: the stream's 20 s engine
// deadline plus 10 s.
constexpr double kServeTimeoutS = 30;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream in(s);
  while (std::getline(in, cur, sep)) out.push_back(cur);
  return out;
}

// ---- the benchmark's own spans ------------------------------------------
// One span per public call; all spans of one execution share its id.
// Kept in memory, written out when the run ends.

struct BenchSpan {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t id = 0;
};

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  int Open(const char* name, std::uint64_t id) {
    if (!enabled_) return -1;
    spans_.push_back({name, NowNs(), 0, stack_.empty() ? -1 : stack_.back(), id});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void Close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
    stack_.pop_back();
  }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const BenchSpan& s = spans_[i];
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"id\":" << s.id << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  bool enabled_ = false;
  std::vector<BenchSpan> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

// Times one public call: wall milliseconds into *ms, a bench span when on.
class Timed {
 public:
  Timed(const char* name, std::uint64_t id, double* ms)
      : ms_(ms), span_(g_spans.Open(name, id)), start_(Clock::now()) {}
  ~Timed() {
    *ms_ += std::chrono::duration<double, std::milli>(Clock::now() - start_)
                .count();
    g_spans.Close(span_);
  }

 private:
  double* ms_;
  int span_;
  Clock::time_point start_;
};

// ---- jobs mode ----------------------------------------------------------

struct Job {
  std::string name, fabric, kernel;
  std::vector<std::string> mappers;
  double deadline_s = 10;
  int max_ii = 16;
  int iterations = 16;
  std::uint64_t data_seed = 1;    ///< kernel input data
  std::uint64_t engine_seed = 42;
  std::vector<int> dead_cells;
};

struct Phases {
  double arch = 0, mrrg = 0, kernel = 0, engine = 0, validate = 0,
         compile = 0, codec = 0, reference = 0, simulate = 0;
  double total = 0;
};

struct Execution {
  std::string verdict;  // see bench_math.py: ANSWERS, FAILURES
  std::string detail;
  std::string digest;
  int ii = -1;
  int mii = -1;
  long cycles = 0;
  Phases t;
  double api_parse = 0, api_validate = 0, api_encode = 0;
  // Traced passes only.
  bool traced = false;
  int attempts = 0;
  double attempt_ms = 0;
  PerfCounters perf;
  std::uint64_t place_accepts = 0, place_rejects = 0, place_evictions = 0,
                route_attempts = 0, route_failures = 0;
  std::int64_t solver_nodes = 0, solver_decisions = 0, solver_conflicts = 0,
               solver_restarts = 0;
  std::map<std::string, double> span_ms;  // library spans, by metric name
};

// Library span aggregates of one traced execution: self time of the
// place/route phase, solver search time per solver, cache probes.
void FoldLibrarySpans(const std::vector<telemetry::SpanRecord>& spans,
                      Execution* e) {
  for (const telemetry::SpanRecord& s : spans) {
    const std::string name = s.name;
    const double ms = static_cast<double>(s.dur_ns) / 1e6;
    if (name == "phase.place_route") {
      double child = 0;
      for (const telemetry::SpanRecord& c : spans) {
        if (c.tid == s.tid && c.depth == s.depth + 1 &&
            c.start_ns >= s.start_ns &&
            c.start_ns + c.dur_ns <= s.start_ns + s.dur_ns) {
          child += static_cast<double>(c.dur_ns) / 1e6;
        }
      }
      e->span_ms["place_route.self_ms"] += ms - child;
      e->span_ms["place_route.total_ms"] += ms;
    } else if (name == "solver.search") {
      e->span_ms["solver.search_ms." + std::string(s.detail)] += ms;
      e->span_ms["solver.search_ms"] += ms;
    } else if (name == "engine.cache_probe" || name == "cache.probe") {
      e->span_ms["cache.probe_ms"] += ms;
    }
  }
}

void FoldTrace(const MapTrace& trace, Execution* e) {
  for (const MapTrace::Attempt& a : trace.Attempts()) {
    ++e->attempts;
    e->attempt_ms += a.seconds * 1e3;
    e->perf += a.perf;
    if (a.solver_steps > 0) e->solver_nodes += a.solver_steps;
    if (!a.search) continue;
    const telemetry::SearchLog& s = *a.search;
    e->place_accepts += s.place_accepts;
    e->place_rejects += s.place_rejects;
    e->place_evictions += s.place_evictions;
    e->route_attempts += s.route_attempts;
    e->route_failures += s.route_failures;
    std::int64_t d = 0, c = 0, r = 0;
    for (const auto& sample : s.solver) {
      d = std::max(d, sample.decisions);
      c = std::max(c, sample.conflicts);
      r = std::max(r, sample.restarts);
    }
    e->solver_decisions += d;
    e->solver_conflicts += c;
    e->solver_restarts += r;
  }
}

std::string RequestBody(const Job& job) {
  api::MapRequest r;
  r.name = job.name;
  r.fabric = job.fabric;
  r.kernel = job.kernel;
  r.mappers = job.mappers;
  r.deadline_seconds = job.deadline_s;
  r.max_ii = job.max_ii;
  r.iterations = job.iterations;
  r.seed = job.data_seed;
  r.dead_cells = job.dead_cells;
  return api::ToJson(r);
}

// One job through the whole flow. `on_mii`, when set, is called with the
// job's MII before the engine runs.
Execution RunJob(const Job& job, std::uint64_t id, bool traced,
                 const std::function<void(int)>& on_mii = {}) {
  Execution e;
  e.traced = traced;
  const auto start = Clock::now();
  const int root = g_spans.Open("job", id);

  std::optional<Architecture> arch;
  {
    Timed t("api.FabricByName", id, &e.t.arch);
    arch = api::FabricByName(job.fabric);
    if (!job.dead_cells.empty()) {
      FaultModel fm;
      for (const int c : job.dead_cells) fm.KillCell(c);
      arch = arch->WithFaults(fm);
    }
  }
  MrrgCache mrrg_cache;
  {
    Timed t("Mrrg", id, &e.t.mrrg);
    mrrg_cache.Get(*arch);
  }
  std::optional<Kernel> kernel;
  {
    Timed t("api.KernelByName", id, &e.t.kernel);
    kernel = api::KernelByName(job.kernel, job.iterations, job.data_seed);
  }
  // The II/MII metric's denominator, on the architecture the job maps to
  // (faults applied). Not part of the flow: its time is left out.
  const auto mii_start = Clock::now();
  e.mii = ComputeMii(kernel->dfg, *arch, job.max_ii).mii();
  if (on_mii) on_mii(e.mii);
  const Clock::duration mii_time = Clock::now() - mii_start;

  EngineOptions eo;
  eo.race = false;
  eo.deadline = Deadline::AfterSeconds(job.deadline_s);
  eo.max_ii = job.max_ii;
  eo.seed = job.engine_seed;
  eo.mrrg_cache = &mrrg_cache;
  MapTrace trace;
  if (traced) eo.observer = &trace;
  Result<EngineResult> result = Error::Internal("not run");
  {
    Timed t("MappingEngine::Run", id, &e.t.engine);
    result = MappingEngine(eo).Run(kernel->dfg, *arch, job.mappers);
  }

  auto finish = [&]() {
    g_spans.Close(root);
    e.t.total = std::chrono::duration<double, std::milli>(Clock::now() - start -
                                                          mii_time)
                    .count();
    if (traced) FoldTrace(trace, &e);
  };

  if (!result.ok()) {
    switch (result.error().code) {
      case Error::Code::kUnmappable: e.verdict = "unmappable"; break;
      case Error::Code::kResourceLimit: e.verdict = "resource_limit"; break;
      default: e.verdict = "error"; break;
    }
    e.detail = result.error().message;
    finish();
    return e;
  }
  const Mapping& mapping = result->mapping;
  e.ii = mapping.ii;
  e.digest = MappingDigestHex(mapping);

  Status valid = Status::Ok();
  {
    Timed t("ValidateMapping", id, &e.t.validate);
    valid = ValidateMapping(kernel->dfg, *arch, mapping);
  }
  if (!valid.ok()) {
    e.verdict = "invalid";
    e.detail = valid.error().message;
    finish();
    return e;
  }
  Result<ConfigImage> image = Error::Internal("not run");
  {
    Timed t("CompileToContexts", id, &e.t.compile);
    image = CompileToContexts(kernel->dfg, *arch, mapping);
  }
  if (!image.ok()) {
    e.verdict = "backend_reject";
    e.detail = image.error().message;
    finish();
    return e;
  }
  Result<ConfigImage> decoded = Error::Internal("not run");
  {
    Timed t("EncodeConfig+DecodeConfig", id, &e.t.codec);
    decoded = DecodeConfig(*arch, EncodeConfig(*arch, *image));
  }
  if (!decoded.ok() || !(*decoded == *image)) {
    e.verdict = "codec";
    e.detail = decoded.ok() ? "decode mismatch" : decoded.error().message;
    finish();
    return e;
  }
  Result<ExecResult> ref = Error::Internal("not run");
  {
    Timed t("RunReference", id, &e.t.reference);
    ref = RunReference(kernel->dfg, kernel->input);
  }
  SimStats stats;
  Result<ExecResult> sim = Error::Internal("not run");
  {
    Timed t("RunOnSimulator", id, &e.t.simulate);
    sim = RunOnSimulator(*arch, *decoded, kernel->input, &stats);
  }
  e.cycles = stats.cycles;
  if (!ref.ok() || !sim.ok()) {
    e.verdict = "sim_error";
    e.detail = !ref.ok() ? ref.error().message : sim.error().message;
  } else if (!SameObservableState(*ref, *sim)) {
    e.verdict = "miscompare";
  } else {
    e.verdict = "verified";
  }
  finish();
  return e;
}

// The api layer on this job's own body: parse, validate, and encode the
// response the service would send. Outside the job's flow time.
void TimeApi(const Job& job, std::uint64_t id, const Execution& done,
             Execution* e) {
  const std::string body = RequestBody(job);
  double parse = 0, validate = 0, encode = 0;
  Result<api::MapRequest> req = Error::Internal("not run");
  {
    Timed t("api.ParseMapRequestText", id, &parse);
    req = api::ParseMapRequestText(body);
  }
  {
    Timed t("api.ValidateMapRequest", id, &validate);
    (void)api::ValidateMapRequest(*req);
  }
  api::MapResponse resp;
  resp.name = job.name;
  resp.fabric = job.fabric;
  resp.kernel = job.kernel;
  resp.mappers = job.mappers;
  resp.ok = !done.digest.empty();
  resp.status = resp.ok ? "ok" : done.verdict;
  resp.ii = done.ii;
  resp.mapping_digest = done.digest;
  {
    Timed t("api.ToJson", id, &encode);
    (void)api::ToJson(resp);
  }
  e->api_parse = parse;
  e->api_validate = validate;
  e->api_encode = encode;
}

void PrintExecution(int job, int pass, const Execution& e) {
  JsonWriter w;
  w.BeginObject();
  w.Key("job").Int(job);
  w.Key("pass").Int(pass);
  w.Key("traced").Bool(e.traced);
  w.Key("verdict").String(e.verdict);
  w.Key("detail").String(e.detail);
  w.Key("digest").String(e.digest);
  w.Key("ii").Int(e.ii);
  w.Key("mii").Int(e.mii);
  w.Key("cycles").Int(e.cycles);
  w.Key("ms").BeginObject();
  w.Key("total").Double(e.t.total);
  w.Key("arch").Double(e.t.arch);
  w.Key("mrrg").Double(e.t.mrrg);
  w.Key("kernel").Double(e.t.kernel);
  w.Key("engine").Double(e.t.engine);
  w.Key("validate").Double(e.t.validate);
  w.Key("compile").Double(e.t.compile);
  w.Key("codec").Double(e.t.codec);
  w.Key("reference").Double(e.t.reference);
  w.Key("simulate").Double(e.t.simulate);
  w.Key("api_parse").Double(e.api_parse);
  w.Key("api_validate").Double(e.api_validate);
  w.Key("api_encode").Double(e.api_encode);
  w.EndObject();
  if (e.traced) {
    w.Key("attempts").Int(e.attempts);
    w.Key("attempt_ms").Double(e.attempt_ms);
    w.Key("perf").BeginObject();
    w.Key("router_queries").Uint(e.perf.router_queries);
    w.Key("router_expansions").Uint(e.perf.router_expansions);
    w.Key("router_pushes").Uint(e.perf.router_pushes);
    w.Key("tracker_checks").Uint(e.perf.tracker_checks);
    w.Key("tracker_check_hits").Uint(e.perf.tracker_check_hits);
    w.EndObject();
    w.Key("search").BeginObject();
    w.Key("place_accepts").Uint(e.place_accepts);
    w.Key("place_rejects").Uint(e.place_rejects);
    w.Key("place_evictions").Uint(e.place_evictions);
    w.Key("route_attempts").Uint(e.route_attempts);
    w.Key("route_failures").Uint(e.route_failures);
    w.Key("solver_nodes").Int(e.solver_nodes);
    w.Key("solver_decisions").Int(e.solver_decisions);
    w.Key("solver_conflicts").Int(e.solver_conflicts);
    w.Key("solver_restarts").Int(e.solver_restarts);
    w.EndObject();
    w.Key("spans").BeginObject();
    for (const auto& [k, v] : e.span_ms) w.Key(k).Double(v);
    w.EndObject();
  }
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

std::vector<Job> ReadJobs(const std::string& path) {
  std::vector<Job> jobs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = Split(line, '\t');
    if (f.size() != 8) {
      std::fprintf(stderr, "flowbench: bad job line: %s\n", line.c_str());
      std::exit(2);
    }
    Job j;
    j.name = f[0];
    j.fabric = f[1];
    j.kernel = f[2];
    j.mappers = Split(f[3], ',');
    j.deadline_s = std::atof(f[4].c_str());
    j.max_ii = std::atoi(f[5].c_str());
    j.iterations = std::atoi(f[6].c_str());
    j.data_seed = std::strtoull(f[7].c_str(), nullptr, 10);
    if (!api::FabricByName(j.fabric) || !api::IsKnownKernel(j.kernel)) {
      std::fprintf(stderr, "flowbench: unknown fabric/kernel: %s\n",
                   line.c_str());
      std::exit(2);
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

// Every job of `jobs` once, untraced, in file order. Each job's MII is
// printed before its engine runs, so a job killed mid-run still has it.
int RunOnce(const std::vector<Job>& jobs) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Execution e = RunJob(jobs[i], i + 1, false, [i](int mii) {
      std::printf("{\"job\":%zu,\"mii\":%d}\n", i, mii);
      std::fflush(stdout);
    });
    TimeApi(jobs[i], i + 1, e, &e);
    PrintExecution(static_cast<int>(i), 0, e);
  }
  return 0;
}

// Interleaved passes over all jobs in a per-pass shuffled order. The
// jobs are those that reached a verdict in `flowbench once`. Passes
// continue while the next one is expected to fit in `seconds`, with at
// least kMinPasses (with tracing, kMinPasses + 2 alternating untraced and
// traced passes: three of each, for the per-layer medians).
int RunJobs(const std::vector<Job>& jobs, double seconds, bool trace,
            std::uint64_t order_seed) {
  std::mt19937_64 rng(order_seed);
  std::vector<int> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);

  const auto start = Clock::now();
  double last_pass_s = 0;
  std::uint64_t exec_id = 0;
  for (int pass = 0;; ++pass) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    const int passes_needed = trace ? kMinPasses + 2 : kMinPasses;
    if (pass >= passes_needed && elapsed + last_pass_s > seconds) break;
    if (pass >= 1000) break;
    const bool traced = trace && (pass % 2 == 1);
    telemetry::SetEnabled(traced);
    telemetry::SetSearchDetail(traced ? telemetry::SearchDetail::kCounters
                                      : telemetry::SearchDetail::kOff);
    g_spans.set_enabled(traced);
    std::shuffle(order.begin(), order.end(), rng);
    const auto pass_start = Clock::now();
    for (const int i : order) {
      const Job& job = jobs[static_cast<std::size_t>(i)];
      if (traced) telemetry::TraceSink::Global().Drain();
      Execution e = RunJob(job, ++exec_id, traced);
      if (traced) FoldLibrarySpans(telemetry::TraceSink::Global().Drain(), &e);
      TimeApi(job, exec_id, e, &e);
      PrintExecution(i, pass, e);
    }
    last_pass_s =
        std::chrono::duration<double>(Clock::now() - pass_start).count();
    if (trace && pass % 2 == 0) last_pass_s *= 2;  // an untraced+traced pair
  }
  telemetry::SetEnabled(false);
  return 0;
}

// ---- serve mode ---------------------------------------------------------

struct StreamEntry {
  double offset_s = 0;
  std::string body;
};

// The in-process answer for one request body: the service's own parse
// and validation, then the whole compile flow on the same fabric (faults
// applied), kernel, engine seed and portfolio.
struct Expected {
  std::string status;  ///< "ok", an engine error code, or "bad-request"
  std::string digest;
  Execution flow;
};

Expected InProcess(const std::string& body) {
  Expected x;
  Result<api::MapRequest> req = api::ParseMapRequestText(body);
  if (!req.ok() || !api::ValidateMapRequest(*req).ok()) {
    x.status = "bad-request";
    return x;
  }
  Job job;
  job.name = req->name;
  job.fabric = req->fabric;
  job.kernel = req->kernel;
  job.mappers = req->mappers;
  job.deadline_s = req->deadline_seconds;
  job.max_ii = req->max_ii;
  job.iterations = req->iterations;
  job.data_seed = req->seed;
  job.engine_seed = req->seed;
  job.dead_cells = req->dead_cells;
  x.flow = RunJob(job, 0, false);
  TimeApi(job, 0, x.flow, &x.flow);
  x.digest = x.flow.digest;
  const std::string& v = x.flow.verdict;
  x.status = v == "unmappable"   ? "unmappable"
             : v == "resource_limit" ? "resource-limit"
             : v == "error"      ? "internal"
                                 : "ok";
  return x;
}

int RunServe(int port, const std::string& stream_path) {
  std::vector<StreamEntry> stream;
  {
    std::ifstream in(stream_path);
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t tab = line.find('\t');
      if (tab == std::string::npos) continue;
      stream.push_back({std::atof(line.substr(0, tab).c_str()),
                        line.substr(tab + 1)});
    }
  }
  std::map<std::string, Expected> expected;
  for (const StreamEntry& s : stream) {
    if (!expected.count(s.body)) expected[s.body] = InProcess(s.body);
  }
  for (const auto& [body, x] : expected) {
    JsonWriter w;
    w.BeginObject().Key("expected").Raw(body);
    w.Key("status").String(x.status).Key("digest").String(x.digest);
    w.Key("verdict").String(x.flow.verdict);
    w.Key("ii").Int(x.flow.ii).Key("mii").Int(x.flow.mii);
    w.Key("engine_ms").Double(x.flow.t.engine);
    w.Key("api_parse").Double(x.flow.api_parse);
    w.Key("api_validate").Double(x.flow.api_validate);
    w.Key("api_encode").Double(x.flow.api_encode);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  }
  std::fflush(stdout);

  struct Outcome {
    double sent_s = 0, done_s = 0, server_ms = -1;  ///< times since t0
    int http = 0;
    bool cache_hit = false;
    std::string error, status, digest;
  };
  std::vector<Outcome> out(stream.size());
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(50);
  auto since_t0 = [&t0]() {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= stream.size()) return;
      const auto sched =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(stream[i].offset_s));
      std::this_thread::sleep_until(sched);
      Outcome& o = out[i];
      o.sent_s = since_t0();
      Result<HttpResponse> resp = HttpFetch("127.0.0.1", port, "POST",
                                            "/v1/map", stream[i].body,
                                            kServeTimeoutS);
      o.done_s = since_t0();
      if (!resp.ok()) {
        o.error = resp.error().message;
        continue;
      }
      o.http = resp->status;
      Result<api::MapResponse> body = api::ParseMapResponseText(resp->body);
      if (body.ok()) {
        o.status = body->status;
        o.digest = body->mapping_digest;
        o.server_ms = body->wall_seconds * 1e3;
        o.cache_hit = body->cache_hit;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kServeClients; ++c) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Outcome& o = out[i];
    const Expected& x = expected[stream[i].body];
    JsonWriter w;
    w.BeginObject();
    w.Key("req").Uint(i);
    w.Key("offset_s").Double(stream[i].offset_s);
    w.Key("sent_s").Double(o.sent_s);
    w.Key("done_s").Double(o.done_s);
    w.Key("server_ms").Double(o.server_ms);
    w.Key("http").Int(o.http);
    w.Key("error").String(o.error);
    w.Key("status").String(o.status);
    w.Key("digest").String(o.digest);
    w.Key("cache_hit").Bool(o.cache_hit);
    w.Key("expected_status").String(x.status);
    w.Key("expected_digest").String(x.digest);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  }
  return 0;
}

const char* Arg(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: flowbench ready --jobs FILE\n"
                 "       flowbench once --jobs FILE\n"
                 "       flowbench jobs --jobs FILE --seconds S "
                 "[--trace 0|1] [--spans FILE] [--order-seed N]\n"
                 "       flowbench serve --port P --stream FILE\n");
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "jobs") {
    const std::vector<Job> jobs = ReadJobs(Arg(argc, argv, "--jobs", ""));
    if (jobs.empty()) {
      std::fprintf(stderr, "flowbench: no jobs\n");
      return 2;
    }
    const bool trace = std::atoi(Arg(argc, argv, "--trace", "0")) != 0;
    const int rc = RunJobs(jobs, std::atof(Arg(argc, argv, "--seconds", "10")),
                           trace,
                           std::strtoull(Arg(argc, argv, "--order-seed", "1"),
                                         nullptr, 10));
    const std::string spans = Arg(argc, argv, "--spans", "");
    if (trace && !spans.empty()) g_spans.Write(spans);
    return rc;
  }
  if (mode == "once") {
    return RunOnce(ReadJobs(Arg(argc, argv, "--jobs", "")));
  }
  if (mode == "ready") {
    // Set-up only: load the job list, resolve every fabric, kernel and
    // mapper the run would use, then report ready.
    const std::vector<Job> jobs = ReadJobs(Arg(argc, argv, "--jobs", ""));
    std::size_t resolved = 0;
    for (const Job& job : jobs) {
      resolved += api::ValidateMapRequest(
                      *api::ParseMapRequestText(RequestBody(job)))
                      .ok() &&
                  api::KernelByName(job.kernel, job.iterations, job.data_seed);
    }
    std::printf("ready %zu/%zu\n", resolved, jobs.size());
    return resolved == jobs.size() ? 0 : 1;
  }
  if (mode == "serve") {
    return RunServe(std::atoi(Arg(argc, argv, "--port", "0")),
                    Arg(argc, argv, "--stream", ""));
  }
  std::fprintf(stderr, "flowbench: unknown mode %s\n", mode.c_str());
  return 2;
}
