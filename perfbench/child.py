"""One cold repetition of `visilat run`, in its own interpreter.

Usage: python3 perfbench/child.py --config C --t-spawn T [--out R]
                                  [--spans F] [--setup-only]

Does what `visilat run --config C` does, timing two phases on the
system-wide monotonic clock: set-up (interpreter start, which the parent
stamps as T just before it starts this process, to a validated config) and
the run (run_experiment + report_json + writing the report to R).  With
--spans the public functions of every layer are wrapped from outside and
their spans are written to F.  Prints one JSON line with the measurements.
"""

import argparse
import json
import os
import resource
import sys
import time


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, to tell machine drift apart."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """This process's own peak RSS.

    ru_maxrss is not used where /proc is available: across exec it keeps
    the high-water mark of the parent that started the child.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    patch = None
    if args.spans:
        import tracer

        patch = tracer.install()
    try:
        from visilat import experiment as ex

        with open(args.config) as fh:
            raw = json.load(fh)
        cfg = ex.load_config(raw)
        t_setup = time.monotonic()
        result = {"setup_s": t_setup - args.t_spawn,
                  "visilat_file": ex.__file__}
        if not args.setup_only:
            report = ex.run_experiment(cfg)
            text = ex.report_json(report)
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            result["run_s"] = time.monotonic() - t_setup
            result["s_size"] = len(cfg.S)
            if patch is not None:
                result["split_cache"] = tracer.split_cache_info()
    finally:
        if patch is not None:
            patch.restore()
    if patch is not None:
        result["restored"] = patch.is_restored()
        result["sites"] = patch.sites
        patch.recorder.save(args.spans, run_id=os.getpid())
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = peak_rss_mb()
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["calib_s"] = calibrate()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
