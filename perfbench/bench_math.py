"""The benchmark's own arithmetic, kept apart so it can be tested.

Every metric perfbench/run.py prints is computed with these functions;
perfbench/test_bench_math.py checks them.
"""

import math
import statistics

# Verdicts of one job execution (flowbench jobs) or one request
# (flowbench serve, classified in run.py). "verified" and "unmappable"
# are answers; every other verdict is a failure.
ANSWERS = ("verified", "unmappable")
# Verdicts that end a job without an answer: such a job is run once and
# its time enters no latency metric (design rule 1).
NO_VERDICT = ("resource_limit", "error")
# Failures that mean an output was wrong, not merely missing. Any of
# these makes a run incorrect.
WRONG_OUTPUT = ("invalid", "codec", "miscompare", "nonrepeat", "wrong_digest")
FAILURES = (
    "resource_limit",  # engine ran out of time or budget (no verdict)
    "error",           # crash or internal error
    "invalid",         # engine ok, ValidateMapping rejects the mapping
    "backend_reject",  # validator-accepted mapping the backend rejects
    "codec",           # bitstream did not round-trip
    "sim_error",       # reference or simulator failed to run
    "miscompare",      # simulator output differs from RunReference
    "nonrepeat",       # digest or verdict differs between executions
    "wrong_digest",    # serve answer differs from the in-process engine
    "transport",       # connection refused, reset or timed out
    "http_5xx",        # server error status
    "unanswered",      # no parseable answer
)


def is_failure(verdict):
    return verdict not in ANSWERS and verdict != "rejected_429"


def is_wrong_output(verdict):
    return verdict in WRONG_OUTPUT


def nearest_rank(values, q):
    """Nearest-rank percentile q (0 < q <= 100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def reportable_percentile(values, q, min_beyond=10):
    """The q percentile, or None when fewer than `min_beyond` samples
    lie beyond it (design rule 2: a tail read from a handful of samples
    is noise)."""
    if not values or samples_beyond(len(values), q) < min_beyond:
        return None
    return nearest_rank(values, q)


def geomean(values):
    """Geometric mean of positive numbers."""
    if not values:
        raise ValueError("geometric mean of no samples")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ii_over_mii(ii, mii, max_ii, mapped):
    """One job's II / MII. An unmapped job counts at max_ii + 1, so
    mapping one more job never reads worse."""
    achieved = ii if mapped else max_ii + 1
    return achieved / max(1, mii)


def lateness_ms(scheduled_s, sent_s):
    """Open-loop send lateness of each request, in ms (never negative:
    a request cannot be sent before its schedule)."""
    return [max(0.0, (b - a) * 1e3) for a, b in zip(scheduled_s, sent_s)]


def backlog_growing(lags_ms, tolerance_ms=5.0):
    """True when the generator fell behind its schedule and stayed
    behind: the median lateness of the last quarter of the requests
    exceeds that of the first quarter by more than `tolerance_ms`."""
    if len(lags_ms) < 8:
        return False
    q = len(lags_ms) // 4
    return (statistics.median(lags_ms[-q:]) -
            statistics.median(lags_ms[:q])) > tolerance_ms


def latency_with_failures(latency_ms, failed, limit_ms):
    """Serve latency where a failed request counts as over the limit:
    it reads limit + its own time to failure."""
    return limit_ms + latency_ms if failed else latency_ms


def max_rate_meeting_slo(rungs, limit_ms):
    """Highest offered rate on the ladder whose p99 meets `limit_ms`,
    with no growing backlog and no failures. `rungs` is a list of dicts
    with rate, latencies_ms (failures already counted over the limit),
    failures and backlog. 0 when no rung passes."""
    best = 0.0
    for r in sorted(rungs, key=lambda r: r["rate"]):
        if not r["latencies_ms"]:
            break
        p99 = nearest_rank(r["latencies_ms"], 99)
        if p99 > limit_ms or r["failures"] or r["backlog"]:
            break
        best = r["rate"]
    return best


def quartile_spread(values):
    """(Q3 - Q1) / median, with statistics.quantiles(n=4)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)
