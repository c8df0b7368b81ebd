"""List-size measurements and Monte Carlo event estimators.

``list_size_at`` is the one list-size count, a span of draws being a code.
Every experiment is deterministic given its seed: trial t draws from a
fresh ``random.Random`` seeded with splitmix64(seed + t * GOLDEN), so
trials are independent streams and a longer run reproduces a shorter one
exactly on the shared prefix.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, field as dc_field

from . import linalg
from .balls import ENUM_LIMIT, ball_size_exact, enumerate_ball, sample_from_ball
from .construct import max_so_dimension, sample_code_star, so_code, uniform_linear_code
from .errors import ParamError
from .fields import ext_field, field_from_q
from .words import LinearCode, is_self_orthogonal

ENSEMBLES = ("self-orthogonal", "code-star", "uniform-linear")
_Z = 1.96  # the normal quantile of every reported (two-sided 95%) Wilson interval


def gv_rate(tau, rho, epsilon):
    """Gilbert-Varshamov-type rate (1 - tau)(1 - rho*tau) - epsilon."""
    if not 0 < tau < 1:
        raise ParamError("tau must lie in (0, 1)")
    if not 0 < rho <= 1:
        raise ParamError("rho must lie in (0, 1]")
    if epsilon < 0:
        raise ParamError("epsilon must be >= 0")
    return (1 - tau) * (1 - rho * tau) - epsilon


def dimension_from_rate(R, n, m, repr="matrix"):
    """k = floor(R * D) for the flat width D (mn or n), clamped to the
    self-orthogonal construction limit."""
    if not 0 <= R <= 0.5:
        raise ParamError("rate must lie in [0, 1/2] for self-orthogonal codes")
    per_coord = {"matrix": m, "vector": 1}.get(repr)
    if per_coord is None:
        raise ParamError(f"unknown representation {repr!r}")
    # R * m * n for matrix codes and R * n for vector codes, multiplied in
    # this order; R * D would round differently and move k at some parameters.
    k = int(math.floor(R * per_coord * n))
    return min(k, max_so_dimension(per_coord * n))


# -- deterministic per-trial RNG streams ------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix64(x):
    """One splitmix64 mixing step; documented 64-bit trial-stream mixer."""
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def trial_seed(seed, trial):
    return splitmix64((seed + trial * _GOLDEN) & _MASK)


def trial_rng(seed, trial):
    return random.Random(trial_seed(seed, trial))


# -- exact list size --------------------------------------------------------


def list_size_at(code: LinearCode, y, r: int) -> int:
    """|B_R(y, r) cap code| for a center given as its flat row y over the
    linearity field (``code.flat`` of a word; ParamError for a row that does
    not fit).  The code scan, when the code has at most as many words as the
    ball and at most ENUM_LIMIT, counts the coefficient tuples c over the
    linearity field with rank(y + c . rows) <= r (C = -C), each sum read as
    its n x m rows over GF(q) by ``rows_of``.  Otherwise the lattice route
    sums c_W * f(W) over ``enumerate_ball``'s terms, where f(W) counts the
    words X of y + C whose space lies in W: the solutions of one linear
    system (see ``_lattice_checks``)."""
    code.check_row(y)
    F = code.lin_field()
    if F.order**code.k <= min(ball_size_exact(code.n, code.m, code.q, r), ENUM_LIMIT):
        flats = (linalg.combine(F, c, code.rows, y) for c in itertools.product(range(F.order), repeat=code.k))
        return sum(linalg.rank(code.field, code.rows_of(x)) <= r for x in flats)
    F, e, checks, s = _lattice_checks(code, y)
    count = 0
    for W, c in enumerate_ball(code.field, code.n, code.m, r):
        # [H_W | s]: each check row read on W (x) F^e, by each row w of W.
        de = len(W) * e
        M = [[x for w in W for x in linalg.combine(F, w, blocks)] + [v] for blocks, v in zip(checks, s)]
        pivots = linalg.pivots(F, M)
        if de not in pivots:  # s lies in the column span of H_W
            count += c * F.order ** (de - len(pivots))
    return count


def _lattice_checks(code, y):
    """(F, e, checks, s): the code's check rows over F, each cut into
    min(n, m) blocks of e entries, one per coordinate of the space, and the
    syndrome s of the center's flat row y.  Column spaces when n <= m: the
    ``kernel`` over the linearity field, cut into n blocks of e = width / n
    (m for a matrix code, 1 for a vector code, as W (x) GF(q^m) is a
    GF(q^m)-subspace), with s = ``syndrome(y)``.  Row spaces when m < n:
    ``parity_check`` over GF(q) cut by columns of X (e = n), with s read
    off the center's rows over GF(q)."""
    n, m = code.n, code.m
    if n <= m:
        e = code.width // n
        return code.lin_field(), e, [[h[i * e : (i + 1) * e] for i in range(n)] for h in code.kernel], code.syndrome(y)
    x = list(itertools.chain.from_iterable(code.rows_of(y)))
    H = code.parity_check
    return code.field, n, [[h[j::m] for j in range(m)] for h in H], [linalg.dot(code.field, h, x) for h in H]


# -- experiment configuration and report ------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    q: int
    n: int
    m: int
    tau: float
    epsilon: float
    trials: int
    seed: int = 0
    repr: str = "matrix"
    ensemble: str = "self-orthogonal"

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ParamError("n and m must be >= 1")
        if not 0 < self.tau < 1 or not 0 < self.epsilon < 1:
            raise ParamError("tau and epsilon must lie in (0, 1)")
        if self.trials < 1:
            raise ParamError("trials must be >= 1")
        if self.repr not in ("matrix", "vector"):
            raise ParamError(f"unknown repr {self.repr!r}")
        if self.ensemble not in ENSEMBLES:
            raise ParamError(f"unknown ensemble {self.ensemble!r}")

    @property
    def radius(self):
        return int(math.floor(self.tau * self.n))

    @property
    def rho(self):
        return self.n / self.m

    def dimension(self):
        return dimension_from_rate(gv_rate(self.tau, self.rho, self.epsilon), self.n, self.m, self.repr)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    dimension: int
    radius: int
    list_sizes: list
    center_ranks: list
    code_seeds: list
    wall_time: float = 0.0

    @property
    def max_list_size(self):
        return max(self.list_sizes)

    @property
    def histogram(self):
        return dict(sorted(Counter(self.list_sizes).items()))

    def summary_dict(self):
        return {
            "config": asdict(self.config),
            "dimension": self.dimension,
            "radius": self.radius,
            "max_list_size": self.max_list_size,
            "histogram": {str(k): v for k, v in self.histogram.items()},
        }

    def to_csv(self) -> str:
        """Deterministic machine output; wall time deliberately excluded."""
        lines = ["trial,list_size,center_rank,code_seed"]
        for t, (ls, cr, cs) in enumerate(zip(self.list_sizes, self.center_ranks, self.code_seeds)):
            lines.append(f"{t},{ls},{cr},{cs}")
        lines.append("# summary " + json.dumps(self.summary_dict(), sort_keys=True))
        return "\n".join(lines) + "\n"

    def histogram_csv(self) -> str:
        lines = ["list_size,count"]
        for k, v in self.histogram.items():
            lines.append(f"{k},{v}")
        return "\n".join(lines) + "\n"


def _draw_code(cfg: ExperimentConfig, k, rng):
    field = field_from_q(cfg.q)
    ext = ext_field(cfg.q, cfg.m) if cfg.repr == "vector" else None
    if cfg.ensemble == "self-orthogonal":
        code = so_code(field, cfg.n, cfg.m, k, rng, repr=cfg.repr, ext=ext)
        if not is_self_orthogonal(code):  # fail fast, never measure a bad draw
            raise ParamError("constructed code failed the self-orthogonality check")
        return code
    if cfg.ensemble == "code-star":
        return sample_code_star(field, cfg.n, cfg.m, max(k, 1), rng, repr=cfg.repr, ext=ext)
    return uniform_linear_code(field, cfg.n, cfg.m, k, rng, repr=cfg.repr, ext=ext)


def max_list_size_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Per trial: fresh code from the ensemble, uniform random center,
    exact list size at radius floor(tau * n)."""
    k = cfg.dimension()
    r = cfg.radius
    t0 = time.monotonic()
    list_sizes, center_ranks, code_seeds = [], [], []
    for t in range(cfg.trials):
        cs = trial_seed(cfg.seed, t)
        rng = random.Random(cs)
        code = _draw_code(cfg, k, rng)
        y = [rng.randrange(code.lin_field().order) for _ in range(code.width)]
        list_sizes.append(list_size_at(code, y, r))
        center_ranks.append(linalg.rank(code.field, code.rows_of(y)))
        code_seeds.append(cs)
    return ExperimentReport(cfg, k, r, list_sizes, center_ranks, code_seeds, time.monotonic() - t0)


# -- event frequency estimators ---------------------------------------------


def wilson_interval(successes, trials):
    """Wilson score confidence interval for a binomial proportion."""
    if trials < 1:
        raise ParamError("trials must be >= 1")
    phat = successes / trials
    denom = 1 + _Z * _Z / trials
    center = (phat + _Z * _Z / (2 * trials)) / denom
    half = _Z * math.sqrt(phat * (1 - phat) / trials + _Z * _Z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class EventEstimate:
    successes: int
    trials: int
    ci_low: float
    ci_high: float
    extra: dict = dc_field(default_factory=dict)

    @property
    def frequency(self):
        return self.successes / self.trials


def _estimate(trials, seed, event, extra):
    """The estimate of how often ``event(rng)`` holds over ``trials`` trials,
    trial t drawing from ``trial_rng(seed, t)``."""
    hits = sum(event(trial_rng(seed, t)) for t in range(trials))
    return EventEstimate(hits, trials, *wilson_interval(hits, trials), extra)


def span_ball_overlap(field, words, radius):
    """|span{X_1..X_l} cap B_R(0, radius)| for n x m matrices X_i over
    ``field``, each given as its rows: the list size at the zero word of the
    code the X_i span, its basis the rows of their flattened rref."""
    R, _ = linalg.rref(field, [[v for row in w for v in row] for w in words])
    code = LinearCode(R, field, len(words[0]), len(words[0][0]))
    return list_size_at(code, [0] * code.width, radius)


def lemma47_event_estimate(q, n, m, tau, ell, C_ratio, trials, seed) -> EventEstimate:
    """Frequency of |span{X_1..X_ell} cap B_R(0, floor(tau*n))| >= C_ratio * ell
    over independent uniform draws X_i from the ball."""
    if ell < 1:
        raise ParamError(f"need ell >= 1, got {ell}")
    field = field_from_q(q)
    r = int(math.floor(tau * n))
    threshold = C_ratio * ell

    def event(rng):
        draws = [sample_from_ball(field, n, m, r, rng) for _ in range(ell)]
        return span_ball_overlap(field, draws, r) >= threshold

    return _estimate(trials, seed, event, {"threshold": threshold, "radius": r})


def lemma48_bound(q, n, m, k, ell):
    """Combined containment-probability bound q^((k+ell-mn-2)ell + 4k - 1)."""
    e = (k + ell - m * n - 2) * ell + 4 * k - 1
    return q**e if e >= 0 else 1.0 / q ** (-e)


def lemma48_event_estimate(q, n, m, k, fixed_set, trials, seed) -> EventEstimate:
    """Frequency that a code from the k-dimensional star ensemble contains
    every word of ``fixed_set``; reported next to the closed-form bound
    (the bound caps a different exact probability, so it is report-only)."""
    ell = len(fixed_set)
    if not 1 <= ell <= k or not 2 * k < m * n:
        raise ParamError("need 1 <= |fixed_set| <= k < mn/2")
    field = field_from_q(q)
    if not linalg.is_independent(field, [w.flatten() for w in fixed_set]):
        raise ParamError("fixed_set must be linearly independent")

    def event(rng):
        return all(map(sample_code_star(field, n, m, k, rng).contains, fixed_set))

    return _estimate(trials, seed, event, {"bound": lemma48_bound(q, n, m, k, ell)})
