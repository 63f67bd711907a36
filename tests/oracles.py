"""Independent reference implementations the tests check against.

Everything here deliberately avoids the package's own code paths:
Monte Carlo uses numpy's Laplace sampler, the projection oracle
enumerates active sets, the allocator oracles are a brute-force grid
search over the reduced one-dimensional problem and a nested bisection
on the multiplier and each level's budget, and the reference
release walks a dict-based tree node by node. The exceptions are
code as first written, kept to pin the bits of the package's faster
versions: ``project_rows_two_sorts``, the projection, and
the ``*_one_shot`` level kernels and their terms.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque

import numpy as np


def _simpson(y: np.ndarray, h: float) -> float:
    w = np.ones(y.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.dot(w, y)) * h / 3.0


def quad_clamped_moments(n: float, eps: float, points: int = 200_001):
    """Mean and variance of max(0, n + Laplace(1/eps)) by Simpson
    quadrature of the density on the positive axis, split at the density
    kink so each piece is smooth. Deterministic to ~1e-12, fully
    independent of both the closed forms and any sampler."""

    def density(z):
        return 0.5 * eps * np.exp(-eps * np.abs(z - n))

    def piece(a, b, g):
        if b <= a:
            return 0.0
        z = np.linspace(a, b, points)
        return _simpson(g(z) * density(z), z[1] - z[0])

    hi = n + 60.0 / eps
    m1 = piece(0.0, n, lambda z: z) + piece(n, hi, lambda z: z)
    m2 = piece(0.0, n, lambda z: z * z) + piece(n, hi, lambda z: z * z)
    return m1, m2 - m1 * m1


def mc_clamped_moments(n: float, eps: float, samples: int, rng: np.random.Generator):
    """Empirical mean/variance of max(0, n + Laplace(1/eps)) with
    standard errors (variance SE from the fourth central moment)."""
    x = np.maximum(0.0, n + rng.laplace(0.0, 1.0 / eps, size=samples))
    mean = float(x.mean())
    se_mean = float(x.std(ddof=1)) / math.sqrt(samples)
    s2 = float(x.var(ddof=1))
    m4 = float(np.mean((x - mean) ** 4))
    se_var = math.sqrt(
        max(m4 - s2 * s2 * (samples - 3) / (samples - 1), 0.0) / samples
    )
    return mean, se_mean, s2, se_var


def mse_closed_form(n, eps):
    """Direct transcription of the closed form, kept separate from the
    package's guarded implementation."""
    n = np.asarray(n, dtype=float)
    return (2.0 - np.exp(-eps * n)) / eps**2 - (n / eps) * np.exp(-eps * n)


def bias_closed_form(n, eps):
    """Direct transcription of the clamp bias e^{-eps n} / (2 eps),
    unclamped: past the exp underflow threshold it reads exactly 0."""
    n = np.asarray(n, dtype=float)
    return np.exp(-eps * n) / (2.0 * eps)


def mse_terms_one_shot(counts, eps, mults=1.0) -> np.ndarray:
    """Per-count mse at a common eps times eps^2, count j weighted by
    mults[j], from whole-vector temporaries."""
    x = np.minimum(eps * counts, 745.0)
    terms = 2.0 - (1.0 + x) * np.exp(-x)
    terms *= mults
    return terms


def mse_deps_terms_one_shot(counts, eps, mults=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Per-count first and second eps-derivatives of mse times eps^3
    and eps^4, weighted as in ``mse_terms_one_shot``."""
    x = np.minimum(eps * counts, 745.0)
    t = np.exp(-x)
    d1 = t * ((x + 2.0) * x + 2.0) - 4.0
    d2 = 12.0 - t * (((x + 3.0) * x + 6.0) * x + 6.0)
    d1 *= mults
    d2 *= mults
    return d1, d2


def mse_sum_one_shot(counts, eps, mults=1.0) -> float:
    return float(mse_terms_one_shot(counts, eps, mults).sum()) / eps**2


def mse_deps_sums_one_shot(counts, eps, mults=1.0) -> tuple[float, float]:
    d1, d2 = mse_deps_terms_one_shot(counts, eps, mults)
    return float(d1.sum()) / eps**3, float(d2.sum()) / eps**4


def grid_search_two_level(root: float, leaves, w, eps_total: float, step: float = 1e-4):
    """Brute-force minimum of the two-level weighted objective over an
    eps_1 grid of the given step. Returns (objective, eps_1)."""
    leaves = np.asarray(leaves, dtype=float)
    e1 = np.arange(step, eps_total, step)
    e2 = eps_total - e1
    vals = w[0] * mse_closed_form(root, e1)
    for nj in leaves:
        vals = vals + w[1] * mse_closed_form(nj, e2)
    i = int(np.argmin(vals))
    return float(vals[i]), float(e1[i])


def _bisect(f, lo: float, hi: float) -> float:
    """The point where an increasing ``f`` crosses zero on [lo, hi], by
    halving the bracket until no float lies strictly inside it."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def bisection_split(counts_per_level, w, program: str, target: float) -> list[float]:
    """The optimal per-level budgets of ``program`` ("fixed_budget":
    sum(eps) = target; "target_mse": weighted total mse = target) by
    plain nested bisection: an outer one on the shared marginal lam, and
    for each lam an inner one on each positive-weight level's e_l(lam),
    the root of w_l * sum_j d mse(N_j, e)/de + lam, each to float
    resolution. Zero-weight levels get 0. The first brackets are the
    closed forms' bounds -4/e^3 <= d mse/de <= -2/e^3, widened twice
    over; after that, as e_l(lam) falls with lam, the budgets at the
    ends of the lam bracket bracket those inside it."""
    levels = [(np.asarray(c, dtype=float), wl) for c, wl in zip(counts_per_level, w)]
    on = [(c, wl) for c, wl in levels if wl > 0]
    fixed = program == "fixed_budget"
    cube = sum((wl * c.size) ** (1 / 3) for c, wl in on)
    if fixed:
        lam_lo, lam_hi = (cube / target) ** 3, 8 * (cube / target) ** 3
    else:
        lam_lo, lam_hi = (target / (2 * cube)) ** 1.5, 8 * (target / cube) ** 1.5
    es_lo = [(8 * wl * c.size / lam_lo) ** (1 / 3) for c, wl in on]
    es_hi = [(wl * c.size / lam_hi) ** (1 / 3) for c, wl in on]
    while lam_lo < (lam := 0.5 * (lam_lo + lam_hi)) < lam_hi:
        es = [
            _bisect(lambda e: wl * mse_deps_sums_one_shot(c, e)[0] + lam, e_hi, e_lo)
            for (c, wl), e_hi, e_lo in zip(on, es_hi, es_lo)
        ]
        if fixed:
            residual = target - sum(es)
        else:
            residual = sum(wl * mse_sum_one_shot(c, e) for (c, wl), e in zip(on, es)) - target
        if residual <= 0.0:
            lam_lo, es_lo = lam, es
        else:
            lam_hi, es_hi = lam, es
    budgets = iter(es)
    return [next(budgets) if wl > 0 else 0.0 for _, wl in levels]


def qp_projection(y, target: float) -> np.ndarray:
    """Exhaustive active-set solution of
    min ||v - y||^2  s.t.  v >= 0, sum(v) = target.

    Enumerates every support set; on each, the equality-constrained
    minimizer is the uniform shift, kept when feasible. Exact for the
    small n used in tests.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if target == 0.0:
        return np.zeros(n)
    best, best_v = math.inf, None
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            idx = list(support)
            shift = (target - y[idx].sum()) / size
            v = np.zeros(n)
            v[idx] = y[idx] + shift
            if v[idx].min() < -1e-12:
                continue
            v[idx] = np.maximum(v[idx], 0.0)
            dist = float(np.sum((v - y) ** 2))
            if dist < best:
                best, best_v = dist, v
    return best_v


def reference_release(rows, eps, uniforms, hier: bool) -> dict:
    """The release of the tree of ``(id, parent_id, level, count)`` rows,
    in any order, as ``{id: value}`` over the levels with budget.

    Node j of level l, in the order of its id's UTF-8 bytes, gets
    ``max(0, count + standard_laplace(u) / eps[l - 1])`` with ``u =
    uniforms[l][j]``, in the engine's order of operations. The Laplace
    transform is applied to each level's vector of uniforms at once, as
    the engine does, so that both take the same ``log1p`` path. With
    ``hier`` (every level released), each sibling group is then projected
    with :func:`qp_projection` onto its parent's adjusted value, top-down
    in breadth-first order."""
    children, by_level = defaultdict(list), defaultdict(list)
    count = {}
    for nid, pid, lv, c in rows:
        count[nid] = float(c)
        by_level[lv].append(nid)
        if pid:
            children[pid].append(nid)
        else:
            root = nid
    value = {}
    for lv, ids in by_level.items():
        if eps[lv - 1] == 0:
            continue
        u = np.asarray(uniforms[lv], dtype=float)
        lap = -np.sign(u) * np.log1p(-2.0 * np.abs(u))
        ids = sorted(ids, key=lambda nid: nid.encode("utf-8", "surrogatepass"))
        for j, nid in enumerate(ids):
            value[nid] = max(0.0, lap[j] / eps[lv - 1] + count[nid])
    if not hier:
        return value
    queue = deque([root])
    while queue:
        parent = queue.popleft()
        kids = children[parent]
        projected = qp_projection([value[k] for k in kids], value[parent]) if kids else ()
        for kid, v in zip(kids, projected):
            value[kid] = float(v)
        queue.extend(kids)
    return value


def project_rows_two_sorts(noisy: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row-wise projection onto ``{v >= 0, sum(v) = target}``, one
    sibling group and one target per row.

    Shift-and-clamp with the threshold found by sorting: the unique
    theta with ``sum(max(y - theta, 0)) = T``.
    """
    y = np.asarray(noisy, dtype=float)
    t = np.asarray(targets, dtype=float)
    n = y.shape[1]
    u = -np.sort(-y, axis=1)
    css = np.cumsum(u, axis=1)
    k = np.arange(1, n + 1)
    # targets below float resolution of the entries can round the k=1
    # test false; the support is then the single largest entry
    rho = np.count_nonzero(u * k > css - t[:, None], axis=1)
    safe_rho = np.maximum(rho, 1)
    theta = (np.take_along_axis(css, safe_rho[:, None] - 1, axis=1)[:, 0] - t) / safe_rho
    v = np.maximum(y - theta[:, None], 0.0)
    totals = v.sum(axis=1)
    scale = np.divide(t, totals, out=np.ones_like(t), where=totals > 0)
    v *= scale[:, None]
    v[t == 0.0] = 0.0
    # y - theta rounded the whole mass away (tiny target): the true
    # projection parks it all on the largest coordinate
    rounded_away = (totals == 0.0) & (t > 0.0)
    if rounded_away.any():
        rows = np.nonzero(rounded_away)[0]
        v[rows, np.argmax(y[rows], axis=1)] = t[rows]
    return v


def se_bias_sq_from_cov(errors) -> float:
    """Delta-method standard error of the squared mean error: with m the
    mean row of ``errors`` (one replicate per row) and S their ddof-1
    covariance, ``sqrt(4 m'Sm / rows)``, the covariance formed in full."""
    errors = np.asarray(errors, dtype=float)
    m = errors.mean(axis=0)
    cov = np.atleast_2d(np.cov(errors, rowvar=False))
    return math.sqrt(4.0 * float(m @ cov @ m) / len(errors))


def majorizes(a, b) -> bool:
    """True when sorted-descending prefix sums of ``a`` dominate ``b``
    (equal totals assumed)."""
    a = np.sort(np.asarray(a, dtype=float))[::-1]
    b = np.sort(np.asarray(b, dtype=float))[::-1]
    return bool(np.all(np.cumsum(a) >= np.cumsum(b) - 1e-9))


def central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
