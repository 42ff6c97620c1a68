"""The benchmark's workloads: the inputs each one sends, made from a seed.

The seed decides the order of every pass, the kernels' input data and,
for serve-mixed, the request stream. It never changes which jobs a
compile workload holds: those populations are fixed, so two seeds
measure the same work and their figures can be compared (NOTES.md,
"Workloads").
"""

import json
import random

FABRICS = ["small2x2", "adres4x4", "hetero4x4", "spatial4x4",
           "torus4x4", "big8x8", "mega16x16", "vliw4"]
KERNELS = ["dot_product", "vecadd", "saxpy", "fir4", "iir1", "mavg3",
           "sobel_gx", "sad", "butterfly", "matvec_row", "gemm_mac",
           "histogram8", "relu_scale", "maxpool_run", "mac2",
           "complex_mul", "alpha_blend", "dct4"]
CELLS = {"adres4x4": 16, "hetero4x4": 16, "spatial4x4": 16,
         "torus4x4": 16, "big8x8": 64, "mega16x16": 256}

MAX_II = 16
ITERATIONS = 16
# A compile job's deadline, unless exact-solve sets its own. The slowest
# job that reaches a verdict finishes in about 2 s at the seed (NOTES.md,
# design rule 1).
DEADLINE_S = 20.0

# route-wide: lane counts per fabric. At the seed a job takes at most
# 85 ms, a pass about 0.5 s. mega16x16 from 9 lanes takes 270 ms and more
# a job, big8x8 from 14 lanes 0.6 s and more: one such job would be half
# a pass, so jobs_per_s would time that job alone.
ROUTE_WIDE = {"big8x8": range(2, 14),
              "mega16x16": range(2, 9),
              "torus4x4": range(2, 25, 2)}

# exact-solve: every exact mapper x catalog kernel x {small2x2, adres4x4}.
# Most jobs finish in under 0.25 s at the seed and get a 2 s deadline.
# The jobs below finish in 0.25-2 s at the seed; a 2 s deadline would let
# the clock decide their verdict (design rule 1), so they get the 20 s
# of the other workloads. About 30 further jobs reach no verdict: they
# run past their deadline, most for many seconds. They stay in the
# workload and count as failed (NOTES.md, "Known failures at the seed").
EXACT_DEADLINE_S = 2.0
EXACT_MAPPERS = ["sat", "cp", "smt", "bnb", "ilp-sched", "ilp-bind",
                 "ilp-spatial", "ilp-temporal"]
EXACT_FABRICS = ["small2x2", "adres4x4"]
EXACT_SLOW = {
    ("smt", "small2x2", "dct4"), ("smt", "adres4x4", "dct4"),
    ("ilp-sched", "small2x2", "gemm_mac"),
    ("ilp-sched", "small2x2", "complex_mul"),
    ("ilp-sched", "adres4x4", "complex_mul"),
    ("ilp-sched", "adres4x4", "dct4"),
    ("ilp-bind", "adres4x4", "mavg3"), ("ilp-bind", "adres4x4", "gemm_mac"),
    ("ilp-bind", "adres4x4", "mac2"),
    ("ilp-spatial", "adres4x4", "sobel_gx"),
    ("ilp-temporal", "small2x2", "vecadd"),
    ("ilp-temporal", "small2x2", "mavg3"),
    ("ilp-temporal", "small2x2", "gemm_mac"),
    ("ilp-temporal", "small2x2", "histogram8"),
}

# serve-mixed: open-loop rates (requests/s), the latency limit and the
# share of requests that repeat an earlier body.
SERVE_FIXED_RATE = 100.0
SERVE_LADDER = [50.0, 100.0, 200.0, 400.0, 800.0]
SERVE_LIMIT_MS = 250.0
SERVE_REPEAT_SHARE = 0.5
SERVE_DEAD_CELL_SHARE = 0.25
SERVE_MAPPERS = ["ims", "ems"]


def _job(name, fabric, kernel, mappers, deadline, data_seed):
    return {"name": name, "fabric": fabric, "kernel": kernel,
            "mappers": mappers, "deadline_s": deadline, "max_ii": MAX_II,
            "iterations": ITERATIONS, "data_seed": data_seed}


def compile_jobs(workload, seed):
    """The job list of a compile workload."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    if workload == "compile-catalog":
        for fabric in FABRICS:
            for kernel in KERNELS:
                jobs.append(_job(f"{fabric}/{kernel}", fabric, kernel,
                                 ["ims", "ems"], DEADLINE_S,
                                 rng.randrange(1, 2**31)))
    elif workload == "route-wide":
        for fabric, lanes in ROUTE_WIDE.items():
            for n in lanes:
                kernel = f"wide_dot_{n}"
                jobs.append(_job(f"{fabric}/{kernel}", fabric, kernel,
                                 ["ims"], DEADLINE_S,
                                 rng.randrange(1, 2**31)))
    elif workload == "exact-solve":
        for mapper in EXACT_MAPPERS:
            for fabric in EXACT_FABRICS:
                for kernel in KERNELS:
                    slow = (mapper, fabric, kernel) in EXACT_SLOW
                    jobs.append(_job(f"{mapper}/{fabric}/{kernel}", fabric,
                                     kernel, [mapper],
                                     DEADLINE_S if slow else EXACT_DEADLINE_S,
                                     rng.randrange(1, 2**31)))
    else:
        raise ValueError(f"not a compile workload: {workload}")
    return jobs


def job_line(job):
    """A job as one line of flowbench's tab-separated job file."""
    return "\t".join([job["name"], job["fabric"], job["kernel"],
                      ",".join(job["mappers"]), repr(job["deadline_s"]),
                      str(job["max_ii"]), str(job["iterations"]),
                      str(job["data_seed"])])


def serve_stream(seed, phases):
    """The serve-mixed request stream: for each (name, rate, seconds)
    phase, requests at fixed spacing 1/rate. A request repeats an
    earlier body with probability SERVE_REPEAT_SHARE (a cache hit once
    the first copy was stored), else it is a fresh body: a fabric and
    kernel drawn uniformly, an engine seed of its own, and on
    SERVE_DEAD_CELL_SHARE of the fresh bodies one dead cell. Returns a
    list of (phase, offset_s, body)."""
    rng = random.Random(f"serve-mixed:{seed}")
    sent = []
    out = []
    offset = 0.0
    for phase, rate, seconds in phases:
        n = max(1, int(rate * seconds))
        for i in range(n):
            if sent and rng.random() < SERVE_REPEAT_SHARE:
                body = rng.choice(sent)
            else:
                fabric = rng.choice(FABRICS)
                req = {"name": f"r{len(sent)}", "fabric": fabric,
                       "kernel": rng.choice(KERNELS),
                       "mappers": SERVE_MAPPERS,
                       "deadline_seconds": DEADLINE_S, "max_ii": MAX_II,
                       "iterations": ITERATIONS,
                       "seed": rng.randrange(1, 2**31)}
                if fabric in CELLS and rng.random() < SERVE_DEAD_CELL_SHARE:
                    req["dead_cells"] = [rng.randrange(CELLS[fabric])]
                body = json.dumps(req, separators=(",", ":"))
                sent.append(body)
            out.append((phase, offset + i / rate, body))
        offset += n / rate + 0.5  # let the queue drain between phases
    return out
