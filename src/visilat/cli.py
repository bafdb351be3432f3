"""Command-line interface.

Subcommands: field, primes, predict, count, oracle, lemma-check, run.
All structured output is JSON; `run` additionally exports CSV on request.
Exit codes for `run`: 0 success, 1 tolerance failure, 2 invalid config or
a cap refused part of the run (the partial report is still written),
3 unsupported field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import counting as ct
from . import density as dn
from . import experiment as ex
from . import ideals as il
from . import primes as pr
from .density import decimal_str
from .errors import ConfigError, FieldError
from .numfield import FieldSpec, field_from_json


def _load_field(text: str) -> FieldSpec:
    if text.lstrip().startswith("{"):
        return field_from_json(text)
    with open(text) as fh:
        return field_from_json(json.load(fh))


def _load_points(field, args):
    if args.s_file:
        with open(args.s_file) as fh:
            data = json.load(fh)
    elif args.s:
        data = json.loads(args.s)
    else:
        raise ConfigError("provide S via --s or --s-file")
    return il.points_from_json(field, data)


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
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("predict", help="truncated Euler product with tail interval")
    _add_field_arg(p)
    _add_s_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--X", type=int, default=10 ** 4)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("count", help="count visible tuples over one region")
    _add_field_arg(p)
    _add_s_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--region", required=True, help="cube:L=20 or ball:R=30")
    p.add_argument("--mode", choices=["direct", "sieve", "mc"], default="sieve")
    p.add_argument("--samples", type=int, default=10 ** 4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--basis-transform", help="JSON matrix, rows = new basis")
    p.add_argument("--out", help="write the report JSON here instead of stdout")

    p = sub.add_parser("oracle", help="exact finite-window density (CRT-checked)")
    _add_field_arg(p)
    _add_s_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--window-t", type=int, default=3,
                   help="use primes above the first t rational primes")
    p.add_argument("--crt-cap", type=int, default=ex.DEFAULT_CRT_CAP)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("lemma-check",
                       help="ideal-point counts vs volume/N over a region")
    _add_field_arg(p)
    p.add_argument("--region", required=True)
    p.add_argument("--max-prime-norm", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", required=True, help="path to config JSON")
    p.add_argument("--out", help="override the report output path")
    p.add_argument("--csv", help="also export a flat CSV here")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except FieldError as exc:
        print(f"unsupported field: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.cmd == "field":
        f = _load_field(args.field)
        print(json.dumps({
            "kind": f.kind,
            "degree": f.degree,
            "basis": list(f.basis_labels),
            "discriminant": f.discriminant,
            "generator_minpoly": list(f.gen_minpoly),
        }, sort_keys=True))
        return 0

    if args.cmd == "primes":
        f = _load_field(args.field)
        for P in pr.primes_up_to_norm(f, args.max_norm, seed=args.seed):
            print(json.dumps({"norm": P.norm, "p": P.under_p, "f": P.f,
                              "e": P.e, "g": list(P.gpoly)},
                             sort_keys=True))
        return 0

    if args.cmd == "predict":
        f = _load_field(args.field)
        S = _load_points(f, args)
        iv = dn.predicted_density(f, S, args.m, args.X, seed=args.seed)
        print(json.dumps(ex.prediction_to_json(iv), sort_keys=True))
        return 0

    if args.cmd == "count":
        f = _load_field(args.field)
        S = _load_points(f, args)
        T = json.loads(args.basis_transform) if args.basis_transform else None
        region = ex.parse_region_arg(f, args.region, basis_transform=T)
        t0 = time.perf_counter()
        if args.mode == "direct":
            res = ct.count_visible_direct(f, S, args.m, region)
        elif args.mode == "sieve":
            res = ct.count_visible_sieve(f, S, args.m, region, seed=args.seed)
        else:
            res = ct.mc_estimate(f, S, args.m, region, args.samples,
                                 args.seed)
        wall = time.perf_counter() - t0
        row = ex.count_to_json(res, None, 0.0)
        row["wall_time_s"] = round(wall, 6)
        text = json.dumps(row, sort_keys=True, indent=2)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0

    if args.cmd == "oracle":
        f = _load_field(args.field)
        S = _load_points(f, args)
        window = pr.window_first_t(f, args.window_t, seed=args.seed)
        ed = dn.exact_window_density(f, S, args.m, window,
                                     crt_cap=args.crt_cap)
        print(json.dumps({"num": str(ed.value.numerator),
                          "den": str(ed.value.denominator)}, sort_keys=True))
        return 0

    if args.cmd == "lemma-check":
        f = _load_field(args.field)
        region = ex.parse_region_arg(f, args.region)
        for P in pr.primes_up_to_norm(f, args.max_prime_norm, seed=args.seed):
            chk = ct.ideal_count_check(f, P.hnf, region)
            print(json.dumps({
                "p": P.under_p, "g": list(P.gpoly), "norm": P.norm,
                "count": chk.count,
                "main_term": decimal_str(chk.main_term, 12, "nearest"),
                "error": decimal_str(chk.error, 12, "nearest"),
                "normalized_error": format(chk.normalized_error, ".12g"),
            }, sort_keys=True))
        return 0

    if args.cmd == "run":
        with open(args.config) as fh:
            raw = json.load(fh)
        cfg = ex.load_config(raw)
        if args.out:
            cfg.out = args.out
        report = ex.run_experiment(cfg)
        text = ex.report_json(report)
        if cfg.out:
            with open(cfg.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        if args.csv:
            ex.emit_csv(report, args.csv)
        if any("error" in row for row in report["counts"] + [
                report["oracle"] or {}, report["lemma_check"] or {}]):
            return 2  # a cap refused some computation; partial report kept
        return 1 if report["failed"] else 0

    raise ConfigError(f"unknown command {args.cmd}")


if __name__ == "__main__":
    sys.exit(main())
