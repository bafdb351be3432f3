"""Command-line interface.

Subcommands: field, primes, predict, count, oracle, lemma-check, run.
All structured output is JSON; `run` additionally exports CSV on request.
Exit codes for `run`: 0 success, 1 tolerance failure, 2 invalid config, a
file that cannot be read or written, or a cap refused part of the run (the
partial report is still written), 3 unsupported field; any command exits 1
when its reader closes stdout early.  Only `count` takes
--seed, for its Monte Carlo stream; prime splitting is deterministic.  The
subcommands read S, parse a region, count and run the lemma check by the
``experiment`` functions that `run` uses; only their output is their own.
A flag that gives a `run` setting (``SETTING_FLAGS``) takes its default and
range from ``experiment``'s settings table, and is refused by name outside
that range before any work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import density as dn
from . import experiment as ex
from . import primes as pr
from .density import decimal_str
from .errors import ConfigError, FieldError
from .numfield import FieldSpec, field_from_json

DEFAULTS = ex.ExperimentConfig  # a flag's default is its setting's in `run`
# the flags that give a `run` setting, refused by name outside its range
# before any work; a norm bound is a prime sieve, as the lemma check's is
SETTING_FLAGS = {"--X": "X", "--samples": "samples", "--window-t": "oracle_window_t",
                 "--crt-cap": "caps.crt", "--max-norm": "lemma_max_prime_norm",
                 "--max-prime-norm": "lemma_max_prime_norm"}


def _load_field(text: str) -> FieldSpec:
    if text.lstrip().startswith("{"):
        return field_from_json(text)
    with open(text) as fh:
        return field_from_json(json.load(fh))


def _load_points(field, args):
    if not (args.s or args.s_file):
        raise ConfigError("provide S via --s or --s-file")
    s_json = None if args.s_file else json.loads(args.s)
    return ex.load_points(field, args.m, s_json, args.s_file)[0]


def _emit(text: str, path):
    """Write ``text`` to the file ``path``, or print it when there is none."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_field_arg(p):
    p.add_argument("--field", required=True,
                   help='field descriptor JSON, e.g. {"kind":"quadratic","d":-1}, or a path')


def _add_s_args(p):
    p.add_argument("--s", help="inline JSON list of m-tuples of coordinate vectors")
    p.add_argument("--s-file", help="path to a JSON file holding S")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="visilat",
        description="Densities of simultaneously visible lattice points "
                    "over rings of integers: Euler-product predictions and "
                    "exact empirical counts.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("field", help="validate and describe a field")
    _add_field_arg(p)

    p = sub.add_parser("primes", help="prime ideals by norm, one JSON per line")
    _add_field_arg(p)
    p.add_argument("--max-norm", type=int, required=True)

    p = sub.add_parser("predict", help="truncated Euler product with tail interval")
    _add_field_arg(p)
    _add_s_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--X", type=int, default=DEFAULTS.X)

    p = sub.add_parser("count", help="count visible tuples over one region")
    _add_field_arg(p)
    _add_s_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--region", required=True, help="cube:L=20 or ball:R=30")
    p.add_argument("--mode", choices=["direct", "sieve", "mc"], default="sieve")
    p.add_argument("--samples", type=int, default=DEFAULTS.samples)
    p.add_argument("--seed", type=int, default=DEFAULTS.seed)
    p.add_argument("--basis-transform", help="JSON matrix, rows = new basis")
    p.add_argument("--out", help="write the report JSON here instead of stdout")

    p = sub.add_parser("oracle", help="exact finite-window density (CRT-checked)")
    _add_field_arg(p)
    _add_s_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--window-t", type=int, default=DEFAULTS.oracle_window_t,
                   help="use primes above the first t rational primes")
    p.add_argument("--crt-cap", type=int, default=DEFAULTS.crt_cap)

    p = sub.add_parser("lemma-check",
                       help="ideal-point counts vs volume/N over a region")
    _add_field_arg(p)
    p.add_argument("--region", required=True)
    p.add_argument("--max-prime-norm", type=int, default=100)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", required=True, help="path to config JSON")
    p.add_argument("--out", help="override the report output path")
    p.add_argument("--csv", help="also export a flat CSV here")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a reader that left raises here, not at exit
        return code
    except BrokenPipeError:  # the flush at exit goes to devnull (Python's SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except FieldError as exc:
        print(f"unsupported field: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    # the subcommands take no caps: a bound of caps.region is its default
    for flag, key in SETTING_FLAGS.items():
        value = vars(args).get(flag[2:].replace("-", "_"))
        if value is not None:
            ex.check_setting(key, value, DEFAULTS.region_cap, flag)
    if args.cmd == "run":
        with open(args.config) as fh:
            raw = json.load(fh)
        cfg = ex.load_config(raw)
        report = ex.run_experiment(cfg)
        _emit(ex.report_json(report), args.out or cfg.out)
        if args.csv:
            ex.emit_csv(report, args.csv)
        if any("error" in row for row in report["counts"] + [
                report["oracle"] or {}, report["lemma_check"] or {}]):
            return 2  # a cap refused some computation; partial report kept
        return 1 if report["failed"] else 0

    f = _load_field(args.field)
    if args.cmd == "field":
        print(json.dumps({
            "kind": f.kind,
            "degree": f.degree,
            "basis": list(f.basis_labels),
            "discriminant": f.discriminant,
            "generator_minpoly": list(f.gen_minpoly),
        }, sort_keys=True))
        return 0

    if args.cmd == "primes":
        for P in pr.primes_up_to_norm(f, args.max_norm):
            print(json.dumps(ex.prime_to_json(P), sort_keys=True))
        return 0

    if args.cmd == "predict":
        S = _load_points(f, args)
        iv = dn.predicted_density(f, S, args.m, args.X)
        print(json.dumps(ex.prediction_to_json(iv), sort_keys=True))
        return 0

    if args.cmd == "count":
        S = _load_points(f, args)
        T = json.loads(args.basis_transform) if args.basis_transform else None
        region = ex.parse_region_arg(f, args.region, basis_transform=T)
        t0 = time.perf_counter()
        res = ex.count_region(f, S, args.m, region, args.mode, args.samples,
                              args.seed)
        wall = time.perf_counter() - t0
        row = ex.count_to_json(res, None, 0.0)
        row["wall_time_s"] = round(wall, 6)
        _emit(json.dumps(row, sort_keys=True, indent=2), args.out)
        return 0

    if args.cmd == "oracle":
        S = _load_points(f, args)
        ed = dn.window_density(f, S, args.m, args.window_t, args.crt_cap)
        print(json.dumps({"num": str(ed.value.numerator),
                          "den": str(ed.value.denominator)}, sort_keys=True))
        return 0

    if args.cmd == "lemma-check":
        region = ex.parse_region_arg(f, args.region)
        for P, chk in ex.lemma_checks(f, region, args.max_prime_norm):
            print(json.dumps({
                "p": P.under_p, "g": list(P.gpoly), "norm": P.norm,
                "count": chk.count,
                "main_term": decimal_str(chk.main_term, 12, "nearest"),
                "error": decimal_str(chk.error, 12, "nearest"),
                "normalized_error": format(chk.normalized_error, ".12g"),
            }, sort_keys=True))
        return 0

    raise ConfigError(f"unknown command {args.cmd}")


if __name__ == "__main__":
    sys.exit(main())
