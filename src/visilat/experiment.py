"""Experiment pipelines: config validation, report assembly, CSV export.

A config bundles a field, a point set S, a region schedule and the modes to
run; ``run_experiment`` executes prediction and counts, compares them, and
produces a deterministic JSON-ready report (identical configs give
byte-identical reports apart from the "timings" section).
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional, Sequence

from . import counting as ct
from . import density as dn
from . import ideals as il
from . import primes as pr
from .counting import DEFAULT_REGION_CAP, DEFAULT_TUPLE_CAP, Region
from .density import decimal_str
from .errors import CapExceeded, ConfigError, FieldError
from .ideals import PointTuple
from .numfield import FieldSpec, field_from_json

VALID_MODES = ("predict", "direct", "sieve", "mc", "oracle", "lemma-check")
DEFAULT_TOLERANCE = 0.02
DEFAULT_CRT_CAP = 10 ** 8


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    field: FieldSpec
    field_json: dict
    m: int
    S: list[PointTuple]
    s_json: list
    regions: list[Region]
    X: int = 10 ** 4
    modes: tuple[str, ...] = ("predict", "sieve")
    seed: int = 0
    samples: int = 10 ** 4
    tolerance: float = DEFAULT_TOLERANCE
    out: Optional[str] = None
    region_cap: int = DEFAULT_REGION_CAP
    tuple_cap: int = DEFAULT_TUPLE_CAP
    crt_cap: int = DEFAULT_CRT_CAP
    oracle_window_t: int = 3
    lemma_max_prime_norm: int = 30

    def echo(self) -> dict:
        return {
            "field": self.field_json,
            "m": self.m,
            "s": self.s_json,
            "regions": [r.label() for r in self.regions],
            "X": self.X,
            "modes": list(self.modes),
            "seed": self.seed,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "caps": {"region": self.region_cap, "tuple": self.tuple_cap,
                     "crt": self.crt_cap},
            "oracle_window_t": self.oracle_window_t,
            "lemma_max_prime_norm": self.lemma_max_prime_norm,
        }


def load_config(data: dict) -> ExperimentConfig:
    """Validate a raw config dict; raises ConfigError / FieldError."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    try:
        fjson = data["field"]
        field = field_from_json(fjson)
    except KeyError:
        raise ConfigError("config needs a 'field' descriptor")
    except FieldError:
        raise
    m = data.get("m")
    if not isinstance(m, int) or m < 2:
        raise ConfigError("m must be an integer >= 2")

    if "s_file" in data:
        with open(data["s_file"]) as fh:
            s_json = json.load(fh)
    else:
        s_json = data.get("s")
    if not s_json:
        raise ConfigError("S must be nonempty (inline 's' or 's_file')")
    try:
        S = il.points_from_json(field, s_json)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad S: {exc}")
    if any(s.m != m for s in S):
        raise ConfigError("every point of S must have m coordinates")
    deduped = il.dedupe_points(S)
    if len(deduped) < len(S):
        warnings.warn("duplicate points in S were dropped", stacklevel=2)
    S = deduped

    raw_regions = data.get("regions")
    if not raw_regions:
        raise ConfigError("region schedule must be nonempty")
    regions = [parse_region_dict(field, r) for r in raw_regions]

    modes = tuple(data.get("modes", ["predict", "sieve"]))
    bad = [mo for mo in modes if mo not in VALID_MODES]
    if bad or not modes:
        raise ConfigError(f"invalid modes {bad or modes}")

    caps = data.get("caps", {})
    cfg = ExperimentConfig(
        field=field, field_json=fjson, m=m, S=S, s_json=s_json,
        regions=regions,
        X=int(data.get("X", 10 ** 4)),
        modes=modes,
        seed=int(data.get("seed", 0)),
        samples=int(data.get("samples", 10 ** 4)),
        tolerance=float(data.get("tolerance", DEFAULT_TOLERANCE)),
        out=data.get("out"),
        region_cap=int(caps.get("region", DEFAULT_REGION_CAP)),
        tuple_cap=int(caps.get("tuple", DEFAULT_TUPLE_CAP)),
        crt_cap=int(caps.get("crt", DEFAULT_CRT_CAP)),
        oracle_window_t=int(data.get("oracle_window_t", 3)),
        lemma_max_prime_norm=int(data.get("lemma_max_prime_norm", 30)),
    )
    if cfg.X < 2:
        raise ConfigError("X must be >= 2")
    return cfg


def parse_region_dict(field: FieldSpec, r: dict) -> Region:
    try:
        shape = r["shape"]
        T = r.get("basis_transform")
        if shape == "cube":
            return ct.cube_region(field, r["L"], basis_transform=T)
        if shape == "ball":
            return ct.ball_region(field, r["R"], basis_transform=T)
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad region {r}: {exc}")
    raise ConfigError(f"unknown region shape {shape!r}")


def parse_region_arg(field: FieldSpec, text: str,
                     basis_transform=None) -> Region:
    """Parse CLI region syntax 'cube:L=20' or 'ball:R=30'."""
    try:
        shape, assign = text.split(":", 1)
        key, value = assign.split("=", 1)
    except ValueError:
        raise ConfigError(f"bad region syntax {text!r}")
    if shape == "cube" and key == "L":
        return ct.cube_region(field, int(value), basis_transform)
    if shape == "ball" and key == "R":
        return ct.ball_region(field, Fraction(value), basis_transform)
    raise ConfigError(f"bad region syntax {text!r}")


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------

def _fmt(x) -> str:
    return format(float(x), ".12g")


def prediction_to_json(iv: dn.PredictionInterval) -> dict:
    zero = None
    if iv.zero_certificate is not None:
        P = iv.zero_certificate
        zero = {"p": P.under_p, "f": P.f, "e": P.e, "g": list(P.gpoly),
                "norm": P.norm}
    # the exact partial product can run to thousands of digits; the directed
    # 30-digit endpoints carry everything a report consumer needs
    return {
        "lo": decimal_str(iv.lo, 30, "down"),
        "hi": decimal_str(iv.hi, 30, "up"),
        "X": iv.cutoff_X,
        "zero": zero,
    }


def count_to_json(res: ct.CountResult,
                  interval: Optional[dn.PredictionInterval],
                  tolerance: float) -> dict:
    row = {
        "region": res.region.label(),
        "mode": res.method,
        "visible": res.visible_count,
        "total": res.total_tuples,
        "density": _fmt(res.density_estimate),
        "stderr": None if res.mc_stderr is None else _fmt(res.mc_stderr),
        "prime_norm_bound": res.prime_norm_bound,
        "discrepancy": None,
        "pass": None,
    }
    if interval is not None:
        mid = (interval.lo + interval.hi) / 2
        disc = abs(res.density_estimate - mid)
        row["discrepancy"] = _fmt(disc)
        row["pass"] = float(disc) <= tolerance
    return row


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute prediction and every counting mode per region; build report."""
    timings: dict[str, float] = {}
    report: dict = {
        "config": cfg.echo(),
        "prediction": None,
        "counts": [],
        "oracle": None,
        "lemma_check": None,
        "failed": False,
        "versions": {"visilat": _version()},
        "timings": timings,
    }

    interval = None
    if "predict" in cfg.modes:
        t0 = time.perf_counter()
        interval = dn.predicted_density(cfg.field, cfg.S, cfg.m, cfg.X,
                                        seed=cfg.seed)
        timings["predict"] = time.perf_counter() - t0
        report["prediction"] = prediction_to_json(interval)

    for region in cfg.regions:
        for mode in cfg.modes:
            if mode in ("predict", "oracle", "lemma-check"):
                continue
            t0 = time.perf_counter()
            try:
                if mode == "direct":
                    res = ct.count_visible_direct(
                        cfg.field, cfg.S, cfg.m, region,
                        region_cap=cfg.region_cap, tuple_cap=cfg.tuple_cap)
                elif mode == "sieve":
                    res = ct.count_visible_sieve(
                        cfg.field, cfg.S, cfg.m, region,
                        region_cap=cfg.region_cap, tuple_cap=cfg.tuple_cap,
                        seed=cfg.seed)
                else:
                    res = ct.mc_estimate(
                        cfg.field, cfg.S, cfg.m, region, cfg.samples,
                        cfg.seed)
            except CapExceeded as exc:
                # keep partial results; the report carries the failure
                report["counts"].append({"region": region.label(),
                                         "mode": mode, "error": str(exc)})
                report["failed"] = True
                continue
            finally:
                timings[f"{region.label()}|{mode}"] = time.perf_counter() - t0
            row = count_to_json(res, interval, cfg.tolerance)
            report["counts"].append(row)
            if row["pass"] is False:
                report["failed"] = True

    # exact side checks; a cap refusal is recorded, like a count row's
    for mode, key, check in (("oracle", "oracle", _oracle),
                             ("lemma-check", "lemma_check", _lemma_check)):
        if mode not in cfg.modes:
            continue
        t0 = time.perf_counter()
        try:
            report[key] = check(cfg)
        except CapExceeded as exc:
            report[key] = {"error": str(exc)}
            report["failed"] = True
        timings[mode] = time.perf_counter() - t0

    return report


def _oracle(cfg: ExperimentConfig) -> dict:
    """Window product against the CRT oracle over the first t primes."""
    window = pr.window_first_t(cfg.field, cfg.oracle_window_t, seed=cfg.seed)
    ed = dn.exact_window_density(cfg.field, cfg.S, cfg.m, window,
                                 crt_cap=cfg.crt_cap)
    return {
        "window_t": cfg.oracle_window_t,
        "num": str(ed.value.numerator),
        "den": str(ed.value.denominator),
        "factors": [
            {"p": P.under_p, "g": list(P.gpoly),
             "num": str(f.numerator), "den": str(f.denominator)}
            for P, f in ed.per_prime_factors],
    }


def _lemma_check(cfg: ExperimentConfig) -> dict:
    """Ideal-point counts against volume/N(P) for every region and prime."""
    rows = []
    worst = 0.0
    for region in cfg.regions:
        for P in pr.primes_up_to_norm(cfg.field, cfg.lemma_max_prime_norm,
                                      seed=cfg.seed):
            chk = ct.ideal_count_check(cfg.field, P.hnf, region,
                                       region_cap=cfg.region_cap)
            worst = max(worst, chk.normalized_error)
            rows.append({"region": region.label(), "p": P.under_p,
                         "g": list(P.gpoly), "norm": P.norm,
                         "count": chk.count,
                         "main_term": _fmt(chk.main_term),
                         "normalized_error": _fmt(chk.normalized_error)})
    return {"max_normalized_error": _fmt(worst), "rows": rows}


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def emit_csv(report: dict, path: str):
    """Flat per-(region, mode) export; stderr column only when MC rows exist."""
    rows = [r for r in report.get("counts", []) if "error" not in r]
    has_mc = any(r["mode"] == "mc" for r in rows)
    header = "region,mode,total,visible,density,lo,hi,discrepancy"
    if has_mc:
        header += ",stderr"
    pred = report.get("prediction") or {}
    lo = pred.get("lo", "")
    hi = pred.get("hi", "")
    lines = [header]
    for r in rows:
        cells = [r["region"], r["mode"], str(r["total"]), str(r["visible"]),
                 r["density"], lo, hi,
                 "" if r["discrepancy"] is None else r["discrepancy"]]
        if has_mc:
            cells.append(r["stderr"] if r["mode"] == "mc" else "")
        lines.append(",".join(cells))
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def _version() -> str:
    from . import __version__

    return __version__
