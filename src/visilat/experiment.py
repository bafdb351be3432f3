"""Experiment pipelines: config validation, report assembly, CSV export.

A config bundles a field, a point set S, a region schedule and the modes to
run; ``run_experiment`` executes prediction and counts, compares them, and
produces a deterministic JSON-ready report (identical configs give
byte-identical reports apart from the "timings" section).  The optional
settings, with their defaults and ranges, are ``ExperimentConfig``'s fields.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field as dc_field, fields as dc_fields
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
# X's prime sieve takes X bytes, so at most 64 MiB
MAX_REGION_CAP = 2 ** 26
# the config keys that are not settings of the table
OTHER_KEYS = ("field", "m", "s", "s_file", "regions", "modes", "out", "caps")


def _setting(default, least=None, greatest=None, key=None):
    """A row of the settings table: the default, the range [least, greatest]
    (None: unbounded) and the config key, if not the field's name."""
    return dc_field(default=default, metadata={"key": key, "range": (least, greatest)})


@dataclass
class ExperimentConfig:
    """Validated experiment description.  The ``_setting`` fields are the
    settings table of `run` and the flags, in the order they are checked; a
    greatest of "caps.region" is the config's region cap, as X and
    lemma_max_prime_norm are prime sieves of that many bytes and Monte Carlo
    holds samples * m points, like a region."""

    field: FieldSpec
    field_json: dict
    m: int
    S: np.ndarray
    s_json: list
    regions: list[Region]
    modes: tuple[str, ...] = ("predict", "sieve")
    out: Optional[str] = None
    X: int = _setting(10 ** 4, 2, "caps.region")
    seed: int = _setting(0, 0, 2 ** 128 - 1)
    samples: int = _setting(10 ** 4, 100, "caps.region")
    tolerance: float = _setting(0.02, 0)
    region_cap: int = _setting(DEFAULT_REGION_CAP, None, MAX_REGION_CAP, key="caps.region")
    tuple_cap: int = _setting(DEFAULT_TUPLE_CAP, key="caps.tuple")
    # the oracle holds one byte per cell of the CRT state space, twice over
    crt_cap: int = _setting(DEFAULT_CRT_CAP, 1, 10 ** 9, key="caps.crt")
    oracle_window_t: int = _setting(3, 1)
    lemma_max_prime_norm: int = _setting(30, 2, "caps.region")

    def echo(self) -> dict:
        out = {"field": self.field_json, "m": self.m, "s": self.s_json,
               "regions": [r.label() for r in self.regions],
               "modes": list(self.modes), "caps": {}}
        for key, f in SETTINGS.items():
            *cap, name = key.split(".")
            (out["caps"] if cap else out)[name] = getattr(self, f.name)
        return out


# the settings table by config key
SETTINGS = {f.metadata["key"] or f.name: f
            for f in dc_fields(ExperimentConfig) if f.metadata}


def check_setting(key: str, value, region_cap: int, flag: Optional[str] = None):
    """Refuse ``value`` outside setting ``key``'s range, naming the key or the
    CLI ``flag`` that gives it; only a config's message names caps.region."""
    least, greatest = SETTINGS[key].metadata["range"]
    shown = greatest
    if greatest == "caps.region":
        greatest = region_cap
        shown = region_cap if flag else f"caps.region = {region_cap}"
    if key == "seed" and not least <= value <= greatest:
        # a Philox key, refused in the words of `counting.mc_estimate`
        raise ConfigError("seed must lie in [0, 2^128)")
    if least is not None and value < least:
        raise ConfigError(f"{flag or key} must be >= {least}")
    if greatest is not None and value > greatest:
        raise ConfigError(f"{flag or key} must be <= {shown}")


def load_config(data: dict) -> ExperimentConfig:
    """Validate a raw config dict; raises ConfigError / FieldError."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if "field" not in data:
        raise ConfigError("config needs a 'field' descriptor")
    fjson = data["field"]
    field = field_from_json(fjson)
    try:
        m = as_int(data.get("m"))
    except (TypeError, ValueError, OverflowError):
        m = None  # null, a bool, a fraction or a non-numeric string
    if m is None or m < 2:
        raise ConfigError("m must be an integer >= 2")

    for key in ("s_file", "out"):  # open() would read an int or a bool as a descriptor
        if data.get(key) is not None and not isinstance(data[key], str):
            raise ConfigError(f"{key} must be a JSON string or null")
    S, s_json = load_points(field, m, data.get("s"), data.get("s_file"))

    raw_regions = data.get("regions", [])
    if not isinstance(raw_regions, list):
        raise ConfigError("regions must be a JSON list")
    if not raw_regions:
        raise ConfigError("region schedule must be nonempty")
    regions = [parse_region_dict(field, r) for r in raw_regions]

    modes = data.get("modes", list(ExperimentConfig.modes))
    if not isinstance(modes, list):
        raise ConfigError("modes must be a JSON list")
    bad = [mo for mo in modes if mo not in VALID_MODES]
    if bad or not modes:
        raise ConfigError(f"invalid modes {bad or modes}")

    caps = data.get("caps", {})
    if not isinstance(caps, dict):
        raise ConfigError("caps must be a JSON object")
    # a misspelt key would otherwise run with its setting's default
    unknown = [k for k in data if "." in str(k) or k not in (*OTHER_KEYS, *SETTINGS)]
    unknown += [f"caps.{k}" for k in caps if f"caps.{k}" not in SETTINGS]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    values = {}
    try:
        for key, f in SETTINGS.items():
            *cap, name = key.split(".")
            raw = (caps if cap else data).get(name, f.default)
            # tolerance, the one real setting, is a float; the rest are ints
            values[f.name] = (float(as_real(raw)) if isinstance(f.default, float)
                              else as_int(raw))
    except (TypeError, ValueError, OverflowError) as exc:
        # null, a list, a non-numeric string, a bool, a fraction for an
        # integer, or an infinite or NaN tolerance
        *names, last = dict.fromkeys(key.split(".")[0] for key in SETTINGS)
        raise ConfigError(f"{', '.join(names)} and {last} must be numbers: "
                          f"{exc}") from None
    # refused here: a run would fail on each only after its counts
    for key, f in SETTINGS.items():
        check_setting(key, values[f.name], values["region_cap"])
    return ExperimentConfig(field=field, field_json=fjson, m=m, S=S,
                            s_json=s_json, regions=regions, modes=tuple(modes),
                            out=data.get("out"), **values)


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


def prime_to_json(P: pr.PrimeIdeal) -> dict:
    """A prime ideal as `visilat primes` lists it and a zero certificate."""
    return {"p": P.under_p, "f": P.f, "e": P.e, "g": list(P.gpoly), "norm": P.norm}


def prediction_to_json(iv: dn.PredictionInterval) -> dict:
    P = iv.zero_certificate
    zero = None if P is None else prime_to_json(P)
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
    import csv  # here, so that a run without --csv does not load it
    rows = [r for r in report.get("counts", []) if "error" not in r]
    has_mc = any(r["mode"] == "mc" for r in rows)
    header = "region,mode,total,visible,density,lo,hi,discrepancy".split(",")
    if has_mc:
        header.append("stderr")
    pred = report.get("prediction") or {}
    lo = pred.get("lo", "")
    hi = pred.get("hi", "")
    with open(path, "w", newline="") as fh:
        # quotes a cell with a comma, such as a transformed region's label
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            cells = [r["region"], r["mode"], r["total"], r["visible"], r["density"],
                     lo, hi, r["discrepancy"]]  # None is written as ""
            if has_mc:
                cells.append(r["stderr"] if r["mode"] == "mc" else "")
            writer.writerow(cells)


def _version() -> str:
    from . import __version__

    return __version__
