"""Statistics and the request-stream generator used by run.py.

Kept apart from run.py so that test_benchlib.py can check them without
building or running the scheduler.
"""

import math
import random
import statistics

# Percentiles a latency may be reported at, highest first.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def percentile(values, p):
    """The p-th percentile of values, interpolating linearly between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, candidates=PERCENTILES, beyond=10):
    """The highest candidate percentile with at least `beyond` samples above
    it, as (p, value); None when even the lowest candidate has too few."""
    n = len(values)
    for p in sorted(candidates, reverse=True):
        if round(n * (100.0 - p) / 100.0, 9) >= beyond:
            return p, percentile(values, p)
    return None


def geomean(values):
    """Geometric mean of positive numbers."""
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def budget_ratio(walls, budgets):
    """Median over calls of wall time divided by the budget the call was
    given. A median, not the maximum the budget contract bounds, because a
    single ILP overrun decides the maximum and differs from seed to seed."""
    if len(walls) != len(budgets) or not walls:
        raise ValueError("budget_ratio needs one budget per wall time")
    return statistics.median(w / b for w, b in zip(walls, budgets))


# --------------------------------------------------------------------------
# The serve-mixed request stream.

HIT, MISS, REFRESH = "hit", "miss", "refresh"

# Only these algorithms improve with a larger budget; the daemon refreshes
# their cached answers and treats every other cached answer as final.
BUDGET_SENSITIVE = ("pipeline",)


def make_sessions(seed, n_sessions, n_instances, algorithms, base_seconds,
                  per_session=10):
    """A seeded closed-loop request stream, cut into stdio sessions that
    share one cache which starts empty.

    Session j is built around instance order[j mod n], where order is a
    seeded permutation of the n instances. It holds a first sighting of that
    instance with the budget-sensitive algorithm, a first sighting of
    instance x = order[(j + n/2) mod n] with budget-insensitive algorithm
    x mod (their number), one refresh of the first key at twice its budget, and hits on
    keys cached so far (70% / 20% / 10% at 10 requests a session). The first
    n sessions touch every instance once with each kind of algorithm. Later
    rounds of n sessions use request seed round + 1, which is part of the
    cache key, so their keys are fresh.

    Each request is a dict with instance, algorithm, seconds, seed (the
    request's seed field) and the cache status the daemon must answer with.
    """
    sensitive = [a for a in algorithms if a in BUDGET_SENSITIVE]
    final = [a for a in algorithms if a not in BUDGET_SENSITIVE]
    if not sensitive or not final or per_session < 3:
        raise ValueError("make_sessions needs both kinds of algorithm and 3 requests a session")
    rng = random.Random(seed)
    order = list(range(n_instances))
    rng.shuffle(order)
    budgets = {}  # (instance, algorithm, request seed) -> budget it is cached under
    sessions = []
    for j in range(n_sessions):
        rnd, i = divmod(j, n_instances)
        x = order[(i + n_instances // 2) % n_instances]
        key = (order[i], sensitive[j % len(sensitive)], rnd + 1)
        other = (x, final[x % len(final)], rnd + 1)
        # a session opens with a miss; the other miss and then the refresh
        # fall in seeded slots after it, and every other request is a hit
        misses = [key, other] if rng.random() < 0.5 else [other, key]
        second, refresh = sorted(rng.sample(range(1, per_session), 2))
        session = []
        for pos in range(per_session):
            if pos in (0, second):
                k = misses[0] if pos == 0 else misses[1]
                seconds, status = base_seconds, MISS
            elif pos == refresh:
                k = key
                seconds, status = 2 * budgets[key], REFRESH
            else:
                k = rng.choice(sorted(budgets))
                seconds, status = base_seconds, HIT
            budgets[k] = max(seconds, budgets.get(k, 0.0))
            session.append({"instance": k[0], "algorithm": k[1], "seconds": seconds,
                            "seed": k[2], "expected": status})
        sessions.append(session)
    return sessions
