"""Inputs of the three workloads, made from the run's seed.

The program sees only the values generated here.  certify-grid is fixed and
ignores the seed; point-queries and cli-cold draw every input from
``random.Random(seed)``, so one seed always gives one input sequence.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("certify-grid", "point-queries", "cli-cold")

X_MIN, X_MAX = 1e-3, 200.0
NU_MAX = 10.0

# The ten acceptance crossovers: (bound a, bound b, order, x range).
CROSSOVERS = tuple(
    [("eq20_upper", "eq18_upper", k / 8.0, (0.05, 20.0)) for k in range(5, 12)]
    + [("eq24_upper", "eq18_upper", nu, (0.05, 30.0)) for nu in (1.0, 2.5, 5.0)]
)
TABLE_IDS = (1, 2, 3, 4, 5, 6)

# Single-point library queries, in equal shares: (op, lowest order, whether
# that order is excluded).  Each range is the one on which the op's result
# has a documented sign or at least one registered bound is valid, except
# struve_m: for orders in (-1/2, -0.484) and x above about 7 its
# cancellation-free route raises QuadratureError (the weight cos^(2 nu) is
# near-singular at the endpoint), so its orders start at -0.48.
QUERY_OPS = (
    ("struve_l", -1.5, True),
    ("bessel_i", -1.0, True),
    ("struve_m", -0.48, False),
    ("b_value", -1.5, True),
    ("bracket", -0.5, False),
    ("cond", -1.5, True),
    ("argratio", -1.5, True),
)

CLI_KINDS = ("eval", "bracket", "cond", "argratio", "table", "verify", "crossover")


def draw_order(rng: random.Random, lo: float, open_lo: bool) -> float:
    """Uniform order on [lo, NU_MAX), or on (lo, NU_MAX] when lo is excluded."""
    u = 1.0 - rng.random() if open_lo else rng.random()
    return lo + (NU_MAX - lo) * u


def draw_arg(rng: random.Random) -> float:
    """Log-uniform argument on [X_MIN, X_MAX]."""
    return min(math.exp(rng.uniform(math.log(X_MIN), math.log(X_MAX))), X_MAX)


def draw_second_arg(rng: random.Random, x: float) -> float:
    """y = x * U(1.01, 10), capped at X_MAX."""
    return min(x * rng.uniform(1.01, 10.0), X_MAX)


def point_queries(seed: int):
    """Endless stream of (op, nu, x, y); y is None except for argratio.

    Every cycle of len(QUERY_OPS) queries holds each op once, in a seeded
    order, so the ops come in equal shares.
    """
    rng = random.Random(seed)
    ops = list(QUERY_OPS)
    while True:
        rng.shuffle(ops)
        for op, lo, open_lo in ops:
            nu = draw_order(rng, lo, open_lo)
            x = draw_arg(rng)
            y = draw_second_arg(rng, x) if op == "argratio" else None
            yield op, nu, x, y


def cli_commands(seed: int, pool: dict[str, list]):
    """Endless stream of (kind, index) into the reference command pool.

    Every cycle holds each command kind once, in a seeded order, and picks
    a seeded entry of that kind.
    """
    rng = random.Random(seed)
    kinds = list(CLI_KINDS)
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            yield kind, rng.randrange(len(pool[kind]))


def oracle_pick(seed: int) -> random.Random:
    """Separate stream that chooses the queries re-checked by quadrature."""
    return random.Random(f"oracle-{seed}")
