"""Benchmark entry point: cold-process `visilat run` on one seeded workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload density --seed 0 --seconds 30 --trace 0

Each repetition is a fresh interpreter (perfbench/child.py) running the
workload's generated config, because the prime-splitting cache lives only as
long as the process and every `visilat run` pays for it.  With --trace 0 the
children run untraced and the end-to-end metrics are reported; with
--trace 1 every other child is traced from outside and the per-layer
metrics are reported.  Every repetition passes the correctness gate in
workloads.check_report or counts as failed, and its timing is dropped.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Metric
names, units and directions come from BENCHMARK.json.  perfbench/README.md
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import tracer
import workloads

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "_work")

SETUP_PROBES = 4       # extra set-up-only children per run, for setup_s
MIN_REPS = 3           # full repetitions per untraced run, however long
MIN_TRACE_REPS = 2     # one traced and one untraced
HARD_LIMIT_S = 150.0   # stop starting children after this long


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("VISILAT_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class RepFailed(Exception):
    """A child that crashed, timed out or failed the correctness gate."""


class Runner:
    """Starts children for one workload config and gates their reports."""

    def __init__(self, name: str, seed: int, deadline: float):
        self.name, self.seed, self.deadline = name, seed, deadline
        self.cfg = workloads.make_config(name, seed)
        self.golden = workloads.load_golden(name)
        stem = os.path.join(WORK, f"{name}-{seed}")
        self.config_path = stem + ".config.json"
        self.report_path = stem + ".report.json"
        self.spans_path = stem + ".spans.npz"
        with open(self.config_path, "w") as fh:
            json.dump(self.cfg, fh)
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, setup_only=False, traced=False):
        """Run one counted child; its measurements, or None if it failed."""
        self.attempted += 1
        try:
            return self.launch(setup_only, traced)
        except RepFailed as exc:
            self.failures.append(str(exc))
            print(f"FAILED child {self.attempted}: {exc}", file=sys.stderr)
            return None

    def launch(self, setup_only=False, traced=False) -> dict:
        """Run one child and gate its report; raises RepFailed."""
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--config", self.config_path]
        if setup_only:
            cmd.append("--setup-only")
        else:
            cmd += ["--out", self.report_path]
            if os.path.exists(self.report_path):
                os.remove(self.report_path)
        if traced:
            cmd += ["--spans", self.spans_path]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            cmd += ["--t-spawn", repr(time.monotonic())]
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=timeout,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            raise RepFailed("child timed out")
        if proc.returncode != 0:
            raise RepFailed(f"child exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-500:]}")
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise RepFailed("child printed no result")
        if not res["visilat_file"].startswith(os.path.join(ROOT, "src") + os.sep):
            raise RepFailed(f"imported visilat from {res['visilat_file']}")
        if setup_only:
            return res
        with open(self.report_path) as fh:
            report = json.load(fh)
        bad = workloads.check_report(self.name, self.seed, self.cfg, report,
                                     self.golden)
        if traced and not res["restored"]:
            bad.append("tracer left a module patched")
        if bad:
            raise RepFailed("; ".join(bad))
        res["report"] = report
        if traced:
            with np.load(self.spans_path) as spans:
                res["layers"] = tracer.summarize(spans)
        return res


def warm_up(runner: Runner):
    """Compile bytecode and touch every import once before any timing."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src"), HERE],
                   cwd=ROOT, check=True, capture_output=True,
                   timeout=max(1.0, runner.deadline - time.monotonic()))
    try:
        runner.launch(setup_only=True)
    except RepFailed as exc:
        print(f"warm-up child failed: {exc}", file=sys.stderr)


def tail(values: list[float]) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}; too few samples for a tail percentile (needs n >= 11)"
    pct = int(100 * (1 - 10 / n))
    q = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return f"n={n}; p{pct}={q:.4f}"


def interval_width(report: dict):
    pred = report.get("prediction")
    if pred is None:
        return None
    return float(pred["hi"]) - float(pred["lo"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "visilat", "__init__.py")):
        print("no visilat sources under src/: run from the repository root",
              file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(WORK, exist_ok=True)

    started = time.monotonic()
    runner = Runner(args.workload, args.seed, started + HARD_LIMIT_S)
    warm_up(runner)
    deadline = min(time.monotonic() + args.seconds, runner.deadline)

    setups = [r["setup_s"] for r in
              (runner.attempt(setup_only=True) for _ in range(SETUP_PROBES))
              if r is not None]
    plain, traced = [], []
    walls = []
    min_reps = MIN_TRACE_REPS if args.trace else MIN_REPS
    while True:
        t0 = time.monotonic()
        use_trace = bool(args.trace) and len(walls) % 2 == 0
        res = runner.attempt(traced=use_trace)
        walls.append(time.monotonic() - t0)
        if res is not None:
            (traced if use_trace else plain).append(res)
        now = time.monotonic()
        if now >= runner.deadline - max(walls):
            break
        if len(walls) >= min_reps and now + statistics.median(walls) > deadline:
            break
    setups += [r["setup_s"] for r in plain]
    children = plain + traced

    metrics = {}
    if args.trace == 0 and plain and setups:
        values = {
            "run_s": statistics.median(r["run_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    elif args.trace == 1 and plain and traced:
        values = layer_metrics(plain, traced)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "cpu": cpu_model(),
           "proc.calib_s": statistics.median(r["calib_s"] for r in children)
           if children else None}
    failed = len(runner.failures)
    print(f"env: {json.dumps(env)}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"children={runner.attempted} (set-up probes {SETUP_PROBES}, "
          f"untraced {len(plain)}, traced {len(traced)}) failed={failed} "
          f"error_rate={failed / max(runner.attempted, 1):.4g}")
    if plain:
        runs = [r["run_s"] for r in plain]
        print(f"  run_s          {statistics.median(runs):.4f} s    "
              f"median; {tail(runs)}")
        print(f"  setup_s        {statistics.median(setups):.4f} s    "
              f"median; n={len(setups)}")
        print(f"  peak_rss_mb    {statistics.median(r['peak_rss_mb'] for r in plain):.1f} MiB")
        width = interval_width(plain[0]["report"])
        if width is not None:
            print(f"  interval_width {width:.6g}      hi - lo of the prediction")
    if traced:
        sites = traced[0]["sites"]
        print("  wrapped bindings: " + json.dumps(sites, sort_keys=True))
    for name, m in metrics.items():
        if args.trace:
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")

    with open(os.path.join(WORK, f"{args.workload}-{args.seed}"
                                 f".result-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "failures": runner.failures,
                   "wrapped_bindings": traced[0]["sites"] if traced else None,
                   "setup_s": setups,
                   "children": [{k: v for k, v in r.items()
                                 if k not in ("report", "sites")}
                                for r in children],
                   "metrics": metrics}, fh, indent=1)

    if not metrics:
        print("no repetition passed, nothing measured", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: medians over traced children, plus diagnostics."""
    layers = [r["layers"] for r in traced]
    out = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    for k in layers[0]:
        if isinstance(layers[0][k], int) and any(d[k] != layers[0][k] for d in layers):
            print(f"warning: count {k} differs between traced children",
                  file=sys.stderr)
    first = traced[0]
    for key in ("hits", "misses"):
        out[f"primes.split_cache.{key}"] = first["split_cache"][key]
    out["counting.count_visible_sieve.prime_norm_bound"] = sum(
        row["prime_norm_bound"] for row in first["report"]["counts"]
        if row["mode"] == "sieve")
    pairs = out["counting.count_visible_direct.tuples"] * first["s_size"]
    out["counting.direct.hnf_fallback_ratio"] = (
        out.pop("counting.direct.hnf_calls") / pairs if pairs else 0.0)
    out["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    out["proc.calib_s"] = statistics.median(r["calib_s"] for r in plain + traced)
    out["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                               - statistics.median(r["run_s"] for r in plain))
    return out


if __name__ == "__main__":
    sys.exit(main())
