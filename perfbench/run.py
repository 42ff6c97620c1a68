#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is compile-catalog, route-wide, exact-solve or serve-mixed. The
first run in a checkout builds the libraries, cgra_serve and flowbench
(perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR (default
.bench_build). The run prints a metric table, then as its last line one
JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).
NOTES.md defines every metric and the design rules behind them.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind under perfbench/

import bench_math as bm  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("compile-catalog", "route-wide", "exact-solve", "serve-mixed")
# setup_s: the median of bursts of SETUP_PER_BURST set-ups at points
# spread over the run, because the host's speed drifts over seconds.
SETUP_PER_BURST = 15
# A run must end within 180 s; no child may take longer than this.
CHILD_TIMEOUT_S = 150
# The first execution of each job (design rule 1): a job still running
# this long after its deadline is killed and counts as a deadline hit
# with this capped overrun. These executions are timed by no latency
# metric, so they run VERDICT_WORKERS at a time.
KILL_MARGIN_S = 0.5
VERDICT_WORKERS = 6

# The end-to-end metrics of BENCHMARK.json, in order, with their units.
E2E_UNITS = {
    "job_ms_geomean": "ms", "job_ms_p50": "ms", "jobs_per_s": "1/s",
    "mapped_ratio": "ratio", "verified_ratio": "ratio",
    "ii_over_mii": "ratio", "failed_ratio": "ratio", "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed in the table for every workload, but not in the JSON line:
# each is undefined on some workload (NOTES.md, "Metrics").
E2E_TABLE_ONLY = {"job_ms_p99": "ms", "req_ms_p50": "ms",
                  "req_ms_p99": "ms", "max_rps_slo": "req/s"}

# Each percentile metric's sample population, printed as its count.
PERCENTILE_SAMPLES = {"job_ms_p50": "jobs", "job_ms_p99": "job_ms",
                      "req_ms_p50": "req_ms", "req_ms_p99": "req_ms"}

PER_LAYER_UNITS = {
    "arch.build_ms": "ms", "arch.mrrg_ms": "ms",
    "ir.kernel_ms": "ms", "ir.reference_ms": "ms",
    "engine.run_ms": "ms", "engine.attempts": "count",
    "engine.unattributed_ms": "ms", "engine.deadline_hits": "count",
    "engine.overrun_ms": "ms",
    "place_route.self_ms": "ms", "place.accept_ratio": "ratio",
    "place.evictions": "count", "route.attempts": "count",
    "route.fail_ratio": "ratio", "router.queries": "count",
    "router.expansions_per_query": "count", "router.pushes": "count",
    "tracker.checks": "count", "tracker.hit_ratio": "ratio",
    "solver.search_ms.sat": "ms", "solver.search_ms.cp": "ms",
    "solver.search_ms.smt": "ms", "solver.search_ms.ilp": "ms",
    "solver.nodes": "count", "solver.ms_per_node": "ms",
    "solver.decisions": "count", "solver.conflicts": "count",
    "solver.restarts": "count",
    "mapping.validate_ms": "ms", "sim.compile_ms": "ms",
    "sim.compile_reject_ratio": "ratio", "sim.codec_ms": "ms",
    "sim.simulate_ms": "ms", "sim.cycles": "count",
    "sim.miscompares": "count",
    "api.parse_ms": "ms", "api.validate_ms": "ms", "api.encode_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "share.arch": "ratio", "share.ir": "ratio", "share.engine_self": "ratio",
    "share.place_route": "ratio", "share.solver": "ratio",
    "share.validate": "ratio", "share.sim": "ratio",
}
# The cache and serve layers: measured on serve-mixed alone, which is not
# in BENCHMARK.json, so these are printed in its table only.
SERVE_LAYER_UNITS = {
    "cache.hit_ratio": "ratio", "serve.server_ms": "ms",
    "serve.transport_ms": "ms", "serve.send_lag_ms": "ms",
    "serve.rejected_429": "count", "serve.wrong_digest": "count",
    "serve.unanswered": "count",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---- build ----------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds flowbench and cgra_serve; returns the
    binary directory. Incremental after the first run."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no library sources next to perfbench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    "flowbench", "cgra_serve"], check=True, stdout=sys.stderr)
    return out


def state_dir():
    d = build_dir().parent / "perfbench-state"
    d.mkdir(parents=True, exist_ok=True)
    return d


# ---- child processes --------------------------------------------------------

def run_child(argv, stdout_path, timeout=CHILD_TIMEOUT_S):
    """Runs argv to completion with stdout to a file; returns
    (exit code, peak RSS in MB) of that child alone. It blocks until
    the child ends, so a caller timing it adds no polling delay. A child
    still running after `timeout` seconds is killed and the run fails."""
    with open(stdout_path, "w") as out:
        proc = subprocess.Popen(argv, stdout=out)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        raise RuntimeError(f"{argv[0]} ran past {timeout} s")
    return proc.returncode, usage.ru_maxrss / 1024.0


def parse_records(text):
    return [json.loads(line) for line in text.splitlines()
            if line.startswith("{")]


def read_records(path):
    return parse_records(Path(path).read_text())


def http_get_status(port, path, timeout=1.0):
    """Status code of a GET, or None when nothing answers."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout) as s:
            s.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n"
                      "Connection: close\r\n\r\n".encode())
            head = s.recv(64).decode(errors="replace")
        return int(head.split()[1]) if head.startswith("HTTP/") else None
    except (OSError, ValueError, IndexError):
        return None


class Daemon:
    """One cgra_serve process on an ephemeral port."""

    def __init__(self, bindir, workdir):
        self.port_file = workdir / "serve.port"
        if self.port_file.exists():
            self.port_file.unlink()
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(bindir / "cgra_serve"), "--port", "0", "--port-file",
             str(self.port_file), "--workers", "2", "--quiet"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.port = None
        self.exit_code = None
        self.rss_mb = 0.0

    def _reap(self, block):
        """Collects the exit status and peak RSS once the process has
        ended; True when it has."""
        if self.exit_code is None:
            pid, status, usage = os.wait4(self.proc.pid,
                                          0 if block else os.WNOHANG)
            if pid == 0:
                return False
            self.exit_code = os.waitstatus_to_exitcode(status)
            self.proc.returncode = self.exit_code
            self.rss_mb = usage.ru_maxrss / 1024.0
        return True

    def wait_ready(self, timeout=30.0):
        """Seconds from process start to the first 200 from /healthz."""
        while time.perf_counter() - self.t0 < timeout:
            if self._reap(block=False):
                raise RuntimeError("cgra_serve exited during start-up")
            if self.port is None:
                text = (self.port_file.read_text().strip()
                        if self.port_file.exists() else "")
                if text:
                    self.port = int(text)
            if self.port is not None and \
                    http_get_status(self.port, "/healthz") == 200:
                return time.perf_counter() - self.t0
            time.sleep(0.001)
        raise RuntimeError("cgra_serve never became ready")

    def stop(self):
        """Stops the daemon; returns (exit code, peak RSS in MB)."""
        if not self._reap(block=False):
            self.proc.send_signal(signal.SIGTERM)
            self._reap(block=True)
        return self.exit_code, self.rss_mb


# ---- compile workloads ---------------------------------------------------

def first_executions(bindir, job_list):
    """Design rule 1: runs every job once, each in its own `flowbench
    once` child, VERDICT_WORKERS at a time. A child still running
    KILL_MARGIN_S after its job's deadline is killed: the job reached no
    verdict ("resource_limit", killed) and its overrun is capped at the
    margin. Returns one execution record per job."""
    def one(j):
        job = job_list[j]
        argv = [str(bindir / "flowbench"), "once", "--jobs", "/dev/stdin"]
        killed = False
        try:
            proc = subprocess.run(argv, input=wl.job_line(job) + "\n",
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=job["deadline_s"] + KILL_MARGIN_S)
            out, code = proc.stdout, proc.returncode
        except subprocess.TimeoutExpired as e:
            out = e.stdout.decode() if isinstance(e.stdout, bytes) \
                else (e.stdout or "")
            code, killed = None, True
        lines = parse_records(out)
        mii = lines[0]["mii"] if lines else -1
        done = [r for r in lines if "verdict" in r]
        if done:
            record = done[0]
        else:
            record = {"verdict": "resource_limit" if killed else "error",
                      "detail": (f"killed {KILL_MARGIN_S} s after its deadline"
                                 if killed else f"flowbench exited with {code}"),
                      "digest": "", "ii": -1, "mii": mii,
                      "ms": {"engine": (job["deadline_s"] + KILL_MARGIN_S)
                             * 1e3 if killed else 0.0}}
        record["job"] = j
        return record

    with ThreadPoolExecutor(VERDICT_WORKERS) as pool:
        return list(pool.map(one, range(len(job_list))))


def per_job(records):
    """Groups execution records by job index."""
    jobs = {}
    for r in records:
        jobs.setdefault(r["job"], []).append(r)
    return jobs


def check_repeats(jobs, names, workload, bindir):
    """Design rule 5: every job's verdict and digest repeat across its
    executions in this run and across earlier runs of the same build in
    this checkout. A job that does not repeat is marked "nonrepeat"."""
    build_id = hashlib.sha256(
        (bindir / "flowbench").read_bytes()).hexdigest()[:16]
    path = state_dir() / f"verdicts-{workload}-{build_id}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    nonrepeat = set()
    for j, execs in jobs.items():
        keys = {(e["verdict"], e["digest"]) for e in execs}
        name = names[j]
        if name in seen:
            keys.add(tuple(seen[name]))
        if len(keys) > 1:
            nonrepeat.add(j)
        elif name not in seen:
            seen[name] = list(next(iter(keys)))
    path.write_text(json.dumps(seen, sort_keys=True))
    return nonrepeat


def compile_e2e(first, timed, job_list, nonrepeat):
    """End-to-end metrics of a compile workload: verdicts from each job's
    first execution, times from the untraced passes of the jobs that
    reached a verdict. A job's time is its fastest pass (design rule 2):
    the host only ever adds time to a job, never takes it away.
    `job_ms_p50` is the median job, not the median execution: the
    latter reads the host's speed over the run."""
    n = len(job_list)
    verdicts = {j: "nonrepeat" if j in nonrepeat else first[j]["verdict"]
                for j in range(n)}
    fastest = {j: min(e["ms"]["total"] for e in execs)
               for j, execs in timed.items()}
    samples = [e["ms"]["total"] for execs in timed.values() for e in execs]
    mapped = [j for j in range(n) if first[j]["digest"] and
              verdicts[j] not in ("invalid", "nonrepeat")]
    ratios = [bm.ii_over_mii(first[j]["ii"], first[j]["mii"],
                             job_list[j]["max_ii"], j in mapped)
              for j in range(n)]
    failed = [j for j in range(n) if bm.is_failure(verdicts[j])]
    return {
        "job_ms_geomean": bm.geomean(list(fastest.values())),
        "job_ms_p50": bm.nearest_rank(list(fastest.values()), 50),
        "job_ms_p99": bm.reportable_percentile(samples, 99),
        "jobs_per_s": len(fastest) / (sum(fastest.values()) / 1e3),
        "mapped_ratio": len(mapped) / n,
        "verified_ratio": sum(v == "verified" for v in verdicts.values()) / n,
        "ii_over_mii": bm.geomean(ratios),
        "failed_ratio": len(failed) / n,
        "req_ms_p50": None, "req_ms_p99": None, "max_rps_slo": None,
        "samples": {"jobs": len(fastest), "job_ms": len(samples)},
    }, verdicts


def sum_medians(jobs, key_fn):
    """Sum over jobs of each job's median of key_fn(execution)."""
    return sum(statistics.median(key_fn(e) for e in execs)
               for execs in jobs.values())


def ratio(num, den):
    return num / den if den else 0.0


def compile_layers(first, untraced, traced, verdicts, job_list):
    """Per-layer metrics of a compile workload: traced records, summed
    over jobs of per-job medians (one pass-equivalent); deadline hits
    and overruns from each job's first execution."""
    ms = lambda k: (lambda e: e["ms"][k])  # noqa: E731
    span = lambda k: (lambda e: e["spans"].get(k, 0.0))  # noqa: E731
    perf = lambda k: (lambda e: e["perf"][k])  # noqa: E731
    search = lambda k: (lambda e: e["search"][k])  # noqa: E731
    t = traced
    m = {
        "arch.build_ms": sum_medians(t, ms("arch")),
        "arch.mrrg_ms": sum_medians(t, ms("mrrg")),
        "ir.kernel_ms": sum_medians(t, ms("kernel")),
        "ir.reference_ms": sum_medians(t, ms("reference")),
        "engine.run_ms": sum_medians(t, ms("engine")),
        "engine.attempts": sum_medians(t, lambda e: e["attempts"]),
        "engine.unattributed_ms": sum_medians(
            t, lambda e: e["ms"]["engine"] - e["attempt_ms"]),
        "place_route.self_ms": sum_medians(t, span("place_route.self_ms")),
        "place.evictions": sum_medians(t, search("place_evictions")),
        "route.attempts": sum_medians(t, search("route_attempts")),
        "router.queries": sum_medians(t, perf("router_queries")),
        "router.pushes": sum_medians(t, perf("router_pushes")),
        "tracker.checks": sum_medians(t, perf("tracker_checks")),
        "solver.nodes": sum_medians(t, search("solver_nodes")),
        "solver.decisions": sum_medians(t, search("solver_decisions")),
        "solver.conflicts": sum_medians(t, search("solver_conflicts")),
        "solver.restarts": sum_medians(t, search("solver_restarts")),
        "mapping.validate_ms": sum_medians(t, ms("validate")),
        "sim.compile_ms": sum_medians(t, ms("compile")),
        "sim.codec_ms": sum_medians(t, ms("codec")),
        "sim.simulate_ms": sum_medians(t, ms("simulate")),
        "sim.cycles": sum_medians(t, lambda e: e["cycles"]),
        "api.parse_ms": sum_medians(t, ms("api_parse")),
        "api.validate_ms": sum_medians(t, ms("api_validate")),
        "api.encode_ms": sum_medians(t, ms("api_encode")),
    }
    for solver in ("sat", "cp", "smt", "ilp"):
        m[f"solver.search_ms.{solver}"] = sum_medians(
            t, span(f"solver.search_ms.{solver}"))
    accepts = sum_medians(t, search("place_accepts"))
    rejects = sum_medians(t, search("place_rejects"))
    m["place.accept_ratio"] = ratio(accepts, accepts + rejects)
    m["route.fail_ratio"] = ratio(sum_medians(t, search("route_failures")),
                                  m["route.attempts"])
    m["router.expansions_per_query"] = ratio(
        sum_medians(t, perf("router_expansions")), m["router.queries"])
    m["tracker.hit_ratio"] = ratio(
        sum_medians(t, perf("tracker_check_hits")), m["tracker.checks"])
    solver_ms = sum_medians(t, span("solver.search_ms"))
    m["solver.ms_per_node"] = ratio(solver_ms, m["solver.nodes"])

    # A deadline hit is a first execution that ended without a verdict
    # at its deadline or was killed past it.
    hits, overrun = 0, 0.0
    for j, e in enumerate(first):
        deadline_ms = job_list[j]["deadline_s"] * 1e3
        engine_ms = e["ms"]["engine"]
        if e["verdict"] == "resource_limit" and engine_ms >= 0.99 * deadline_ms:
            hits += 1
            overrun += max(0.0, engine_ms - deadline_ms)
    m["engine.deadline_hits"] = hits
    m["engine.overrun_ms"] = overrun
    accepted = [v for v in verdicts.values()
                if v in ("verified", "backend_reject", "codec", "sim_error",
                         "miscompare")]
    m["sim.compile_reject_ratio"] = ratio(
        sum(v == "backend_reject" for v in accepted), len(accepted))
    m["sim.miscompares"] = sum(v == "miscompare" for v in verdicts.values())

    # Self-time shares: the engine's own time is what its spans
    # (place/route, solver) do not cover.
    pr_total = sum_medians(t, span("place_route.total_ms"))
    layers = {
        "arch": m["arch.build_ms"] + m["arch.mrrg_ms"],
        "ir": m["ir.kernel_ms"] + m["ir.reference_ms"],
        "engine_self": max(0.0, m["engine.run_ms"] - pr_total - solver_ms),
        "place_route": pr_total,
        "solver": solver_ms,
        "validate": m["mapping.validate_ms"],
        "sim": m["sim.compile_ms"] + m["sim.codec_ms"] + m["sim.simulate_ms"],
    }
    total = sum(layers.values())
    for k, v in layers.items():
        m[f"share.{k}"] = ratio(v, total)

    # Telemetry overhead: traced vs untraced per-job medians, paired job
    # by job.
    pairs = [(statistics.median(e["ms"]["total"] for e in traced[j]),
              statistics.median(e["ms"]["total"] for e in untraced[j]))
             for j in traced if j in untraced]
    m["trace.overhead_ratio"] = (
        bm.geomean([a for a, _ in pairs]) / bm.geomean([b for _, b in pairs])
        if pairs else 0.0)
    return m


class Setup:
    """Collects set-up times in bursts; `seconds()` is their median."""

    def __init__(self, setup_once):
        self.setup_once = setup_once
        self.samples = []

    def burst(self):
        self.samples += [self.setup_once() for _ in range(SETUP_PER_BURST)]

    def seconds(self):
        return statistics.median(self.samples)


def run_compile(args, bindir, work):
    job_list = wl.compile_jobs(args.workload, args.seed)
    jobs_path = work / "jobs.tsv"
    jobs_path.write_text("".join(wl.job_line(j) + "\n" for j in job_list))
    names = [j["name"] for j in job_list]

    def setup_once():
        t0 = time.perf_counter()
        code, _ = run_child([str(bindir / "flowbench"), "ready", "--jobs",
                             str(jobs_path)], work / "ready.out")
        if code != 0:
            raise RuntimeError("flowbench ready failed")
        return time.perf_counter() - t0

    setup = Setup(setup_once)
    setup.burst()
    first = first_executions(bindir, job_list)
    setup.burst()
    # Only jobs that reached a verdict are timed (design rule 1).
    reached = [j for j in range(len(job_list))
               if first[j]["verdict"] not in bm.NO_VERDICT]
    timed_path = work / "timed.tsv"
    timed_path.write_text("".join(wl.job_line(job_list[j]) + "\n"
                                  for j in reached))
    argv = [str(bindir / "flowbench"), "jobs", "--jobs", str(timed_path),
            "--seconds", str(args.seconds), "--order-seed", str(args.seed),
            "--trace", str(args.trace)]
    if args.trace:
        argv += ["--spans", str(state_dir() / f"spans-{args.workload}.json")]
    code, rss = run_child(argv, work / "records.jsonl")
    if code != 0:
        raise RuntimeError(f"flowbench exited with {code}")
    setup.burst()
    records = read_records(work / "records.jsonl")
    for r in records:
        r["job"] = reached[r["job"]]
    untraced = per_job([r for r in records if not r["traced"]])
    traced = per_job([r for r in records if r["traced"]])
    if len(untraced) != len(reached):
        raise RuntimeError("flowbench did not run every job")
    nonrepeat = check_repeats(per_job(first + records), names, args.workload,
                              bindir)
    e2e, verdicts = compile_e2e(first, untraced, job_list, nonrepeat)
    e2e["setup_s"] = setup.seconds()
    e2e["peak_rss_mb"] = rss
    failed = [j for j, v in verdicts.items() if bm.is_failure(v)]
    wrong = [j for j, v in verdicts.items() if bm.is_wrong_output(v)]
    layers = None
    if args.trace:
        layers = compile_layers(first, untraced, traced, verdicts, job_list)
    summary = {v: sum(1 for x in verdicts.values() if x == v)
               for v in sorted(set(verdicts.values()))}
    log(f"{args.workload}: {len(job_list)} jobs, {len(reached)} timed, "
        f"{len(records)} timed executions, verdicts {summary}")
    for j in sorted(failed):
        log(f"  failed {names[j]}: {verdicts[j]} {first[j]['detail'][:100]}")
    return {"e2e": e2e, "layers": layers, "attempted": len(job_list),
            "failed": len(failed), "correct": not wrong}


# ---- serve-mixed ----------------------------------------------------------

def classify_request(r):
    if r["error"]:
        return "transport"
    if r["http"] == 429:
        return "rejected_429"
    if r["http"] >= 500:
        return "http_5xx"
    if not r["status"]:
        return "unanswered"
    if r["status"] != r["expected_status"] or \
            r["digest"] != r["expected_digest"]:
        return "wrong_digest"
    if r["status"] == "unmappable":
        return "unmappable"
    if r["status"] != "ok":
        return "resource_limit" if r["status"] == "resource-limit" else "error"
    return "served"


def run_serve(args, bindir, work):
    seconds = float(args.seconds)
    rung_s = 0.4 * seconds / len(wl.SERVE_LADDER)
    phases = [("fixed", wl.SERVE_FIXED_RATE, 0.5 * seconds)]
    phases += [(f"rung{r:g}", r, rung_s) for r in wl.SERVE_LADDER]
    stream = wl.serve_stream(args.seed, phases)
    stream_path = work / "stream.tsv"
    stream_path.write_text("".join(f"{off!r}\t{body}\n"
                                   for _, off, body in stream))

    def setup_once():
        d = Daemon(bindir, work)
        try:
            return d.wait_ready()
        finally:
            d.stop()

    setup = Setup(setup_once)
    setup.burst()
    daemon = Daemon(bindir, work)
    try:
        daemon.wait_ready()
        code, client_rss = run_child(
            [str(bindir / "flowbench"), "serve", "--port", str(daemon.port),
             "--stream", str(stream_path)], work / "serve.jsonl")
    finally:
        exit_code, rss = daemon.stop()
    setup.burst()
    if code != 0:
        raise RuntimeError(f"flowbench serve exited with {code}")
    if exit_code not in (0, None):
        log(f"serve-mixed: cgra_serve exited with {exit_code} "
            f"({'signal ' + signal.Signals(-exit_code).name if exit_code < 0 else 'code'})")
    records = read_records(work / "serve.jsonl")
    expected = {json.dumps(r["expected"], separators=(",", ":")): r
                for r in records if "expected" in r}
    reqs = [r for r in records if "req" in r]
    if len(reqs) != len(stream):
        raise RuntimeError("flowbench serve did not answer every request")
    lags = bm.lateness_ms([r["offset_s"] for r in reqs],
                          [r["sent_s"] for r in reqs])
    for r, lag, (phase, _, body) in zip(reqs, lags, stream):
        # Open loop: latency runs from the scheduled send time.
        r["lag_ms"] = lag
        r["latency_ms"] = (r["done_s"] - r["offset_s"]) * 1e3
        r["phase"] = phase
        r["body"] = body
        r["verdict"] = classify_request(r)
        flow = expected.get(body)
        # An ok answer counts as verified only when its (in-process)
        # mapping simulates bit-exact to RunReference.
        if r["verdict"] == "served":
            r["verdict"] = flow["verdict"] if flow else "unanswered"

    limit = wl.SERVE_LIMIT_MS
    fixed = [r for r in reqs if r["phase"] == "fixed"]
    lat = [bm.latency_with_failures(r["latency_ms"],
                                    bm.is_failure(r["verdict"]) or
                                    r["verdict"] == "rejected_429", limit)
           for r in fixed]
    rungs = []
    for phase, rate, _ in phases[1:]:
        rs = [r for r in reqs if r["phase"] == phase]
        rungs.append({
            "rate": rate,
            "latencies_ms": [bm.latency_with_failures(
                r["latency_ms"], bm.is_failure(r["verdict"]), limit)
                for r in rs],
            "failures": sum(bm.is_failure(r["verdict"]) for r in rs),
            "backlog": bm.backlog_growing([r["lag_ms"] for r in rs]),
        })

    # Jobs are the distinct bodies; a job's verdict is its worst
    # request's (any failure fails the job).
    by_body = {}
    for r in reqs:
        by_body.setdefault(r["body"], []).append(r)
    n = len(by_body)
    job_verdict_of = {}
    for body, rs in by_body.items():
        fails = [r["verdict"] for r in rs if bm.is_failure(r["verdict"])]
        job_verdict_of[body] = fails[0] if fails else rs[0]["verdict"]
    # A job reached a verdict when the server answered it, right or
    # wrong; transport failures, 5xx and unparseable bodies did not.
    answered = {b: [r["latency_ms"] for r in rs if r["status"]]
                for b, rs in by_body.items()}
    medians = [statistics.median(v) for v in answered.values() if v]
    samples = [x for v in answered.values() for x in v]
    mapped = [b for b, v in job_verdict_of.items()
              if v in ("verified", "backend_reject", "codec", "sim_error",
                       "miscompare")]
    ratios = [bm.ii_over_mii(expected[b]["ii"], expected[b]["mii"],
                             json.loads(b).get("max_ii", wl.MAX_II),
                             b in mapped)
              for b in by_body]
    failed_jobs = [b for b, v in job_verdict_of.items() if bm.is_failure(v)]
    e2e = {
        "job_ms_geomean": bm.geomean(medians) if medians else None,
        "job_ms_p50": bm.nearest_rank(medians, 50) if medians else None,
        "job_ms_p99": bm.reportable_percentile(samples, 99),
        "jobs_per_s": (len(medians) / (sum(medians) / 1e3)
                       if medians else None),
        "mapped_ratio": len(mapped) / n,
        "verified_ratio": sum(v == "verified"
                              for v in job_verdict_of.values()) / n,
        "ii_over_mii": bm.geomean(ratios),
        "failed_ratio": len(failed_jobs) / n,
        "req_ms_p50": bm.nearest_rank(lat, 50),
        "req_ms_p99": bm.reportable_percentile(lat, 99),
        "samples": {"jobs": len(medians), "job_ms": len(samples),
                    "req_ms": len(lat)},
        "max_rps_slo": bm.max_rate_meeting_slo(rungs, limit),
        "setup_s": setup.seconds(),
        "peak_rss_mb": rss,
    }
    counts = {}
    for r in reqs:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    log(f"serve-mixed: {len(reqs)} requests over {n} distinct bodies, "
        f"verdicts {dict(sorted(counts.items()))}, client RSS "
        f"{client_rss:.1f} MB")
    for r in reqs:
        if r["verdict"] == "wrong_digest":
            log(f"  first wrong digest: request {r['req']} {r['body']} -> "
                f"{r['status']} {r['digest']}, in-process "
                f"{r['expected_status']} {r['expected_digest']}")
            break
    layers = None
    if args.trace:
        ok = [r for r in reqs if r["server_ms"] >= 0]
        flows = list(expected.values())
        layers = {k: 0.0 for k in {**PER_LAYER_UNITS, **SERVE_LAYER_UNITS}}
        layers.update({
            "engine.run_ms": sum(f["engine_ms"] for f in flows),
            "api.parse_ms": sum(f["api_parse"] for f in flows),
            "api.validate_ms": sum(f["api_validate"] for f in flows),
            "api.encode_ms": sum(f["api_encode"] for f in flows),
            "cache.hit_ratio": ratio(sum(r["cache_hit"] for r in ok), len(ok)),
            "serve.server_ms": (statistics.median(r["server_ms"] for r in ok)
                                if ok else 0.0),
            "serve.transport_ms": (statistics.median(
                r["latency_ms"] - r["lag_ms"] - r["server_ms"] for r in ok)
                if ok else 0.0),
            "serve.send_lag_ms": statistics.median(r["lag_ms"] for r in reqs),
            "serve.rejected_429": counts.get("rejected_429", 0),
            "serve.wrong_digest": counts.get("wrong_digest", 0),
            "serve.unanswered": counts.get("unanswered", 0) +
            counts.get("transport", 0) + counts.get("http_5xx", 0),
        })
    return {"e2e": e2e, "layers": layers, "attempted": len(reqs),
            "failed": sum(bm.is_failure(r["verdict"]) for r in reqs),
            "correct": counts.get("wrong_digest", 0) == 0}


# ---- report ------------------------------------------------------------------

def fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bindir = build()
    work = state_dir() / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-mixed":
            result = run_serve(args, bindir, work)
        else:
            result = run_compile(args, bindir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = result["e2e"]
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("end-to-end:")
    for name, unit in list(E2E_UNITS.items()) + list(E2E_TABLE_ONLY.items()):
        n = e2e["samples"].get(PERCENTILE_SAMPLES.get(name))
        count = f"  (n={n})" if n is not None else ""
        print(f"  {name:<28} {fmt(e2e.get(name)):>14} {unit}{count}")
    if result["layers"] is not None:
        print("per-layer:")
        rows = dict(PER_LAYER_UNITS)
        if args.workload == "serve-mixed":
            rows.update(SERVE_LAYER_UNITS)
        for name, unit in rows.items():
            print(f"  {name:<28} {fmt(result['layers'][name]):>14} {unit}")

    if args.trace:
        metrics = {k: {"value": result["layers"][k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in E2E_UNITS.items()}
    missing = [k for k, m in metrics.items() if m["value"] is None]
    if missing:
        # Only serve-mixed can get here, when no request was answered.
        log(f"undefined metrics (null): {missing}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
