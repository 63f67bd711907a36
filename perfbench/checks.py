"""Output checks for each workload, independent of ``hierdp``.

Every checker takes the generated input and the raw bytes the program
wrote, and returns a list of problems; an empty list means the output
is correct. The closed-form mse of the clamped release
``max(0, N + Lap(1/eps))`` is recomputed here in numpy from its
documented form ``(2 - (1 + x) e^{-x}) / eps^2`` with ``x = eps * N``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gen import CSV_HEADER, Tree

# bottom-level empirical mse of a release over its analytic value; a
# noise-free release reads 0, a release at twice the noise scale 4
NOISE_BAND = (0.25, 4.0)
MC_SE_LIMIT = 4.0
# relative size of the budget moved between two levels when probing
# that an allocation is a minimum
TRANSFER_STEP = 1e-4
WEIGHT_FNS = ("log", "linear", "quadratic")


def clamped_mse(counts: np.ndarray, eps: float) -> np.ndarray:
    x = np.minimum(eps * np.asarray(counts, dtype=float), 745.0)
    return (2.0 - (1.0 + x) * np.exp(-x)) / eps**2


def total_mse(counts: list[np.ndarray], eps) -> float:
    """Unweighted objective: summed per-node mse over levels with budget."""
    return float(
        sum(clamped_mse(c, e).sum() for c, e in zip(counts, eps) if e > 0)
    )


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    return math.isfinite(obj)


def _load_json(text: str, what: str, problems: list[str]):
    try:
        return json.loads(text)
    except ValueError as exc:
        problems.append(f"{what} is not JSON: {exc}")
        return None


def check_release(tree: Tree, csv_text: str, sidecar_text: str,
                  eps_total: float) -> list[str]:
    """Checks a ``release --hier`` output."""
    problems: list[str] = []
    sidecar = _load_json(sidecar_text, "release sidecar", problems)
    if sidecar is None:
        return problems
    eps = [float(e) for e in sidecar["allocation"]["eps"]]
    if len(eps) != len(tree.counts):
        return [f"sidecar has {len(eps)} levels, tree {len(tree.counts)}"]
    if not _rel_close(sum(eps), eps_total, 1e-9):
        problems.append(f"sidecar eps sum {sum(eps)!r} != eps_total {eps_total!r}")
    if sidecar.get("consistency_applied") is not True:
        problems.append("consistency_applied is not true")

    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return problems + ["release CSV header is wrong"]
    released = [lv for lv, e in enumerate(eps) if e > 0]
    expected_rows = sum(len(tree.ids[lv]) for lv in released)
    if len(lines) - 1 != expected_rows:
        return problems + [
            f"release has {len(lines) - 1} rows, released levels hold {expected_rows}"
        ]
    split = [line.rpartition(",") for line in lines[1:]]
    prefixes = tree.row_prefixes()
    bounds = np.cumsum([0] + [len(level) for level in tree.ids])
    expected = [p for lv in released for p in prefixes[bounds[lv]:bounds[lv + 1]]]
    if [s[0] for s in split] != expected:
        problems.append("release rows do not match the input's ids, parents and levels")
    try:
        values = np.array([float(s[2]) for s in split])
    except ValueError:
        return problems + ["release holds a non-numeric count"]
    if not (np.isfinite(values).all() and (values >= 0).all()):
        problems.append("release holds a negative or non-finite count")

    by_level = {}
    offset = 0
    for lv in released:
        n = len(tree.ids[lv])
        by_level[lv] = values[offset:offset + n]
        offset += n
    for lv in released:
        if lv + 1 not in by_level:
            continue
        parent = by_level[lv]
        sums = by_level[lv + 1].reshape(parent.size, -1).sum(axis=1)
        bad = int(np.count_nonzero(np.abs(parent - sums) > 1e-9 * np.abs(parent)))
        if bad:
            problems.append(
                f"{bad} level-{lv + 1} parents differ from their children's sum"
            )
    bottom = len(tree.counts) - 1
    if bottom in by_level:
        truth = tree.counts[bottom]
        empirical = float(np.mean((by_level[bottom] - truth) ** 2))
        analytic = float(np.mean(clamped_mse(truth, eps[bottom])))
        ratio = empirical / analytic
        if not NOISE_BAND[0] <= ratio <= NOISE_BAND[1]:
            problems.append(
                f"bottom-level empirical mse is {ratio:.3g}x the analytic value "
                f"(band {NOISE_BAND})"
            )
    return problems


def check_evaluate(tree: Tree, report_text: str, eps_total: float,
                   replicates: int) -> list[str]:
    problems: list[str] = []
    report = _load_json(report_text, "evaluation report", problems)
    if report is None:
        return problems
    if not _all_finite(report):
        problems.append("evaluation report holds a non-finite number")
    arms = report["arms"]
    analytic = report["analytic_mse"]
    for arm in ("optimized", "uniform"):
        eps = report[arm]["eps"]
        if not _rel_close(sum(eps), eps_total, 1e-9):
            problems.append(f"{arm} eps sum {sum(eps)!r} != eps_total {eps_total!r}")
        recomputed = total_mse(tree.counts, eps)
        if not _rel_close(analytic[arm], recomputed, 1e-9):
            problems.append(
                f"{arm} analytic mse {analytic[arm]!r} != closed form {recomputed!r}"
            )
        for hier_tag in ("no_hier", "with_hier"):
            est = arms[f"{arm}_{hier_tag}"]
            if est["replicates"] != replicates:
                problems.append(f"{arm}_{hier_tag} ran {est['replicates']} replicates")
        est = arms[f"{arm}_no_hier"]
        if abs(est["mse"] - analytic[arm]) > MC_SE_LIMIT * est["se_mse"]:
            problems.append(
                f"{arm}_no_hier Monte Carlo mse {est['mse']!r} is more than "
                f"{MC_SE_LIMIT} SE ({est['se_mse']!r}) from analytic {analytic[arm]!r}"
            )
    for hier_tag in ("no_hier", "with_hier"):
        if not arms[f"optimized_{hier_tag}"]["mse"] < arms[f"uniform_{hier_tag}"]["mse"]:
            problems.append(f"optimized does not beat uniform {hier_tag}")
    if not analytic["optimized"] < analytic["uniform"]:
        problems.append("optimized analytic mse does not beat uniform")
    return problems


def _is_minimum(counts: list[np.ndarray], eps: list[float]) -> list[str]:
    """Moving a little budget between any two levels never lowers the
    objective at an optimal split."""
    base = total_mse(counts, eps)
    worse = []
    for i in range(len(eps)):
        for j in range(len(eps)):
            if i == j:
                continue
            step = TRANSFER_STEP * min(eps[i], eps[j])
            moved = list(eps)
            moved[i] -= step
            moved[j] += step
            if total_mse(counts, moved) < base * (1.0 - 1e-12):
                worse.append(f"level {i + 1}->{j + 1}")
    return [f"moving budget {', '.join(worse)} lowers the objective"] if worse else []


def check_allocate(prior: Tree, fixed_text: str, target_text: str,
                   eps_total: float, tau: float) -> list[str]:
    problems: list[str] = []
    fixed = _load_json(fixed_text, "fixed-budget allocation", problems)
    target = _load_json(target_text, "target-mse allocation", problems)
    if fixed is None or target is None:
        return problems
    for name, alloc, program in (
        ("fixed-budget", fixed, "fixed_budget"),
        ("target-mse", target, "target_mse"),
    ):
        eps = [float(e) for e in alloc["eps"]]
        if alloc.get("program") != program:
            problems.append(f"{name} reports program {alloc.get('program')!r}")
        if len(eps) != len(prior.counts) or not all(e > 0 and math.isfinite(e) for e in eps):
            problems.append(f"{name} eps {eps!r} are not positive and finite")
            continue
        if not _rel_close(sum(eps), float(alloc["eps_total"]), 1e-9):
            problems.append(f"{name} eps sum {sum(eps)!r} != its eps_total")
        if program == "fixed_budget" and not _rel_close(sum(eps), eps_total, 1e-9):
            problems.append(f"fixed-budget eps sum {sum(eps)!r} != eps_total {eps_total!r}")
        if program == "target_mse":
            achieved = total_mse(prior.counts, eps)
            if not _rel_close(achieved, tau, 1e-8):
                problems.append(f"target-mse objective {achieved!r} != tau {tau!r}")
        problems += [f"{name}: {p}" for p in _is_minimum(prior.counts, eps)]
    return problems


def check_downstream(payload_text: str, replicates: int) -> list[str]:
    problems: list[str] = []
    payload = _load_json(payload_text, "downstream report", problems)
    if payload is None:
        return problems
    if not _all_finite(payload):
        problems.append("downstream report holds a non-finite number")
    for arm in ("optimized", "uniform"):
        for w in WEIGHT_FNS:
            stats = payload.get(arm, {}).get(w)
            if stats is None:
                problems.append(f"downstream report lacks {arm}/{w}")
                continue
            used = stats["replicates_used"]
            excluded = stats["excluded_replicates"]
            if used + excluded != replicates:
                problems.append(
                    f"{arm}/{w}: {used} used + {excluded} excluded != {replicates}"
                )
    gaps = payload.get("mse_gap_uniform_minus_optimized", {})
    if sorted(gaps) != sorted(WEIGHT_FNS):
        problems.append("downstream report lacks an mse gap per weight function")
    return problems
