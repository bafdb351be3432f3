"""Seeded `visilat run` configs for the benchmark, and the checks on their reports.

``make_config(name, seed)`` is the only input the program receives.  The seed
draws the extra points of S and the config's own ``seed``; every size below is
fixed, so two seeds differ only in where S sits, not in how much work a run
does.  ``check_report`` is the correctness gate applied to every repetition.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

WORKLOADS = ("density", "exact", "lattice")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_SEEDS = range(16)   # seeds stored in golden/ by make_golden.py


def _point(rng: random.Random, m: int, n: int, lo: int, hi: int) -> list:
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _distinct_points(rng: random.Random, count: int, m: int, n: int,
                     lo: int, hi: int, taken=()) -> list:
    out = []
    seen = {json.dumps(p) for p in taken}
    while len(out) < count:
        p = _point(rng, m, n, lo, hi)
        key = json.dumps(p)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def make_config(name: str, seed: int) -> dict:
    """The `visilat run` config of workload ``name`` at ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "density":
        # the paper's headline: an Euler-product interval checked by an
        # exact sieve count over two large regions of Z[i]^2
        origin = [[0, 0], [0, 0]]
        S = [origin] + _distinct_points(rng, 1, 2, 2, -3, 3, taken=[origin])
        return {
            "field": {"kind": "quadratic", "d": -1},
            "m": 2, "s": S, "X": 10 ** 5,
            "regions": [{"shape": "cube", "L": 50}, {"shape": "ball", "R": 60}],
            "modes": ["predict", "sieve"],
            "seed": rng.randrange(2 ** 31),
            "tolerance": 0.01,
        }
    if name == "exact":
        # every exact oracle on small regions: sieve == direct and
        # product == CRT are both hard gates here
        S = _distinct_points(rng, 3, 2, 2, -5, 5)
        return {
            "field": {"kind": "quadratic", "d": -7},
            "m": 2, "s": S, "X": 10 ** 3,
            "regions": [{"shape": "cube", "L": 7}, {"shape": "ball", "R": 9}],
            "modes": ["predict", "direct", "sieve", "mc", "oracle"],
            "seed": rng.randrange(2 ** 31),
            "samples": 20000,
            "tolerance": 0.05,
        }
    if name == "lattice":
        # degree 3: region enumeration, ideal-membership counting and the
        # general-degree norm/HNF/factorization paths
        origin = [[0, 0, 0], [0, 0, 0]]
        S = [origin] + _distinct_points(rng, 1, 2, 3, -3, 3, taken=[origin])
        return {
            "field": {"kind": "monogenic", "minpoly": [-1, -1, 0, 1]},
            "m": 2, "s": S,
            "regions": [{"shape": "ball", "R": 30}, {"shape": "cube", "L": 20}],
            "modes": ["mc", "lemma-check"],
            "seed": rng.randrange(2 ** 31),
            "samples": 10000,
            "lemma_max_prime_norm": 100,
        }
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------

def project(report: dict) -> dict:
    """The parts of a report that must repeat exactly.

    Leaves out ``timings``, the sieve's ``prime_norm_bound`` (a layer a later
    change may tighten; it is a per-layer metric instead), and everything
    derived from the interval midpoint, which moves with ``lo``.
    """
    pred = report.get("prediction")
    oracle = report.get("oracle")
    lemma = report.get("lemma_check")
    return {
        "counts": [[r["region"], r["mode"], r["visible"], r["total"]]
                   for r in report["counts"]],
        "prediction": None if pred is None else {
            "lo": pred["lo"], "hi": pred["hi"], "X": pred["X"],
            "zero": pred["zero"]},
        "oracle": None if oracle is None else {
            "num": oracle["num"], "den": oracle["den"]},
        "lemma": None if lemma is None else [
            [r["region"], r["p"], r["g"], r["norm"], r["count"]]
            for r in lemma["rows"]],
    }


def load_golden(name: str) -> dict:
    """Golden projections of workload ``name``, keyed by seed as a string."""
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def tail_slack(cfg: dict) -> Fraction:
    """(hi - lo) / hi allowed by the tail bound the program uses today."""
    n = {"rational": 1, "quadratic": 2}.get(cfg["field"]["kind"])
    if n is None:
        n = len(cfg["field"]["minpoly"]) - 1
    m, X = cfg["m"], cfg["X"]
    return Fraction(2 * n * len(cfg["s"]), (m - 1) * X ** (m - 1))


def check_report(name: str, seed: int, cfg: dict, report: dict,
                 golden: dict) -> list[str]:
    """Reasons the report is wrong; an empty list means it passed."""
    bad = []
    if report.get("failed") is not False:
        bad.append("report says failed")
    errors = [r for r in report.get("counts", []) if "error" in r]
    if errors:
        bad.append(f"error rows: {errors}")
        return bad
    got = project(report)
    pred = got["prediction"]
    if ("predict" in cfg["modes"]) != (pred is not None):
        bad.append("prediction missing or unexpected")
    if pred is not None and pred["zero"] is None:
        lo, hi = Fraction(pred["lo"]), Fraction(pred["hi"])
        if not 0 < lo <= hi:
            bad.append(f"bad interval [{lo}, {hi}]")
        # one unit in the 30th place for each directed rounding
        elif hi - lo > hi * tail_slack(cfg) + Fraction(2, 10 ** 30):
            bad.append("interval wider than the tail bound allows")
    by_region = {}
    for region, mode, visible, total in got["counts"]:
        by_region.setdefault(region, {})[mode] = (visible, total)
    for region, modes in by_region.items():
        if "direct" in modes and "sieve" in modes \
                and modes["direct"] != modes["sieve"]:
            bad.append(f"direct != sieve on {region}: {modes}")
    # lemma rows depend on the field, the regions and the prime bound, not on
    # S or the seed, so every seed is held to the golden rows
    if golden and got["lemma"] != next(iter(golden.values()))["lemma"]:
        bad.append("lemma differ from golden copy")
    want = golden.get(str(seed))
    if want is not None:
        for key in ("counts", "oracle"):
            if got[key] != want[key]:
                bad.append(f"{key} differ from golden copy")
        gp, wp = got["prediction"], want["prediction"]
        if (gp is None) != (wp is None):
            bad.append("prediction differs from golden copy")
        elif gp is not None:
            if (gp["hi"], gp["X"], gp["zero"]) != (wp["hi"], wp["X"], wp["zero"]):
                bad.append("prediction hi differs from golden copy")
            # a sharper tail raises lo and passes; a looser one fails
            elif not (Fraction(wp["lo"]) <= Fraction(gp["lo"]) <= Fraction(wp["hi"])):
                bad.append("prediction lo outside [golden lo, golden hi]")
    return bad
