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
from typing import Optional

import numpy as np

from . import counting as ct
from . import density as dn
from . import ideals as il
from . import primes as pr
from .counting import DEFAULT_REGION_CAP, DEFAULT_TUPLE_CAP, Region
from .density import DEFAULT_CRT_CAP, decimal_str
from .errors import CapExceeded, ConfigError
from .numfield import FieldSpec, as_int, as_real, field_from_json

VALID_MODES = ("predict", "direct", "sieve", "mc", "oracle", "lemma-check")
# the oracle holds one byte per cell of the CRT state space, twice over
MAX_CRT_CAP = 10 ** 9
# X's prime sieve takes X bytes, so at most 64 MiB
MAX_REGION_CAP = 2 ** 26


@dataclass
class ExperimentConfig:
    """Validated experiment description; the defaults of `run` and the flags."""

    field: FieldSpec
    field_json: dict
    m: int
    S: np.ndarray
    s_json: list
    regions: list[Region]
    X: int = 10 ** 4
    modes: tuple[str, ...] = ("predict", "sieve")
    seed: int = 0
    samples: int = 10 ** 4
    tolerance: float = 0.02
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
    if "field" not in data:
        raise ConfigError("config needs a 'field' descriptor")
    fjson = data["field"]
    field = field_from_json(fjson)
    m = data.get("m")
    if not isinstance(m, int) or m < 2:
        raise ConfigError("m must be an integer >= 2")

    S, s_json = load_points(field, m, data.get("s"), data.get("s_file"))

    raw_regions = data.get("regions", [])
    if not isinstance(raw_regions, list):
        raise ConfigError("regions must be a JSON list")
    if not raw_regions:
        raise ConfigError("region schedule must be nonempty")
    regions = [parse_region_dict(field, r) for r in raw_regions]

    D = ExperimentConfig  # the default of each setting left out
    modes = data.get("modes", list(D.modes))
    if not isinstance(modes, list):
        raise ConfigError("modes must be a JSON list")
    bad = [mo for mo in modes if mo not in VALID_MODES]
    if bad or not modes:
        raise ConfigError(f"invalid modes {bad or modes}")

    caps = data.get("caps", {})
    if not isinstance(caps, dict):
        raise ConfigError("caps must be a JSON object")
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a JSON string or null")
    try:
        cfg = ExperimentConfig(
            field=field, field_json=fjson, m=m, S=S, s_json=s_json,
            regions=regions,
            X=as_int(data.get("X", D.X)),
            modes=tuple(modes),
            seed=as_int(data.get("seed", D.seed)),
            samples=as_int(data.get("samples", D.samples)),
            tolerance=float(as_real(data.get("tolerance", D.tolerance))),
            out=out,
            region_cap=as_int(caps.get("region", D.region_cap)),
            tuple_cap=as_int(caps.get("tuple", D.tuple_cap)),
            crt_cap=as_int(caps.get("crt", D.crt_cap)),
            oracle_window_t=as_int(data.get("oracle_window_t", D.oracle_window_t)),
            lemma_max_prime_norm=as_int(data.get("lemma_max_prime_norm", D.lemma_max_prime_norm)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        # null, a list, a non-numeric string, a bool, a fraction for an
        # integer, or an infinite or NaN tolerance
        raise ConfigError("X, seed, samples, tolerance, caps, oracle_window_t "
                          f"and lemma_max_prime_norm must be numbers: {exc}"
                          ) from None
    # refused here: a run would fail on each only after its counts
    for bad, says in ((cfg.region_cap > MAX_REGION_CAP,
                       f"caps.region must be <= {MAX_REGION_CAP}"),
                      (cfg.X < 2, "X must be >= 2"),
                      # the prime sieve behind the product takes X bytes
                      (cfg.X > cfg.region_cap,
                       f"X must be <= caps.region = {cfg.region_cap}"),
                      (cfg.tolerance < 0, "tolerance must be >= 0"),
                      (not 0 <= cfg.seed < 2 ** 128, "seed must lie in [0, 2^128)"),
                      (cfg.samples < 100, "samples must be >= 100"),
                      # Monte Carlo holds samples * m points, like a region
                      (cfg.samples > cfg.region_cap,
                       f"samples must be <= caps.region = {cfg.region_cap}"),
                      (cfg.oracle_window_t < 1, "oracle_window_t must be >= 1"),
                      (cfg.lemma_max_prime_norm < 2,
                       "lemma_max_prime_norm must be >= 2"),
                      # and the lemma check's takes lemma_max_prime_norm
                      (cfg.lemma_max_prime_norm > cfg.region_cap,
                       "lemma_max_prime_norm must be <= caps.region = "
                       f"{cfg.region_cap}"),
                      (cfg.crt_cap > MAX_CRT_CAP,
                       f"caps.crt must be <= {MAX_CRT_CAP}")):
        if bad:
            raise ConfigError(says)
    return cfg


def load_points(field: FieldSpec, m: int, s_json, s_file=None):
    """S and its JSON, read from the file ``s_file`` if given, else ``s_json``."""
    if s_file is not None:
        with open(s_file) as fh:
            s_json = json.load(fh)
    if not s_json:
        raise ConfigError("S must be nonempty (inline 's' or 's_file')")
    try:
        S = il.point_set(field, s_json, m)
    except ValueError as exc:
        raise ConfigError(f"bad S: {exc}")
    if len(S) < len(s_json):
        warnings.warn("duplicate points in S were dropped", stacklevel=3)
    return S, s_json


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
    except KeyError as exc:
        raise ConfigError(f"bad region {r}: missing key {exc}")
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad region {r}: {exc}")
    raise ConfigError(f"unknown region shape {shape!r}")


def parse_region_arg(field: FieldSpec, text: str,
                     basis_transform=None) -> Region:
    """Parse CLI region syntax 'cube:L=20' or 'ball:R=30' by ``parse_region_dict``."""
    try:
        shape, assign = text.split(":", 1)
        key, value = assign.split("=", 1)
    except ValueError:
        raise ConfigError(f"bad region syntax {text!r}")
    return parse_region_dict(field, {"shape": shape, key: value,
                                     "basis_transform": basis_transform})


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
    # 30-digit endpoints carry everything a report consumer needs, and are
    # read off the unreduced numerator and denominator
    return {
        "lo": decimal_str(iv.lo_ratio, 30, "down"),
        "hi": decimal_str((iv.num, iv.den), 30, "up"),
        "X": iv.cutoff_X,
        "zero": zero,
    }


def count_to_json(res: ct.CountResult, iv: Optional[dn.PredictionInterval],
                  tolerance: float) -> dict:
    """One report row; the discrepancy is taken from the midpoint of the
    prediction ``iv``, if any."""
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
    if iv is not None:
        # |x - a/b| by one int true division, correctly rounded as
        # float(Fraction) is, with no gcd of the huge a and b
        a, b = iv.mid_ratio
        x = res.density_estimate
        disc = abs(x.numerator * b - a * x.denominator) / (x.denominator * b)
        row["discrepancy"] = _fmt(disc)
        row["pass"] = disc <= tolerance
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
        interval = dn.predicted_density(cfg.field, cfg.S, cfg.m, cfg.X)
        timings["predict"] = time.perf_counter() - t0
        report["prediction"] = prediction_to_json(interval)

    for region in cfg.regions:
        for mode in cfg.modes:
            if mode in ("predict", "oracle", "lemma-check"):
                continue
            t0 = time.perf_counter()
            try:
                res = count_region(cfg.field, cfg.S, cfg.m, region, mode,
                                   cfg.samples, cfg.seed, cfg.region_cap,
                                   cfg.tuple_cap)
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


def count_region(field: FieldSpec, S, m: int, region: Region, mode: str,
                 samples: int, seed: int, region_cap: int = DEFAULT_REGION_CAP,
                 tuple_cap: int = DEFAULT_TUPLE_CAP) -> ct.CountResult:
    """Count region^m by ``mode``: "direct", "sieve" or "mc" (uncapped)."""
    if mode == "direct":
        return ct.count_visible_direct(field, S, m, region, region_cap, tuple_cap)
    if mode == "sieve":
        return ct.count_visible_sieve(field, S, m, region, region_cap, tuple_cap)
    return ct.mc_estimate(field, S, m, region, samples, seed)


def lemma_checks(field: FieldSpec, region: Region, max_prime_norm: int,
                 region_cap: int = DEFAULT_REGION_CAP):
    """(P, its ``ideal_count_check``) for each P of norm <= ``max_prime_norm``."""
    for P in pr.primes_up_to_norm(field, max_prime_norm):
        yield P, ct.ideal_count_check(field, P, region, region_cap)


def _oracle(cfg: ExperimentConfig) -> dict:
    """Window product against the CRT oracle over the first t primes."""
    ed = dn.window_density(cfg.field, cfg.S, cfg.m, cfg.oracle_window_t,
                           cfg.crt_cap)
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
        for P, chk in lemma_checks(cfg.field, region, cfg.lemma_max_prime_norm,
                                   cfg.region_cap):
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
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _version() -> str:
    from . import __version__

    return __version__
