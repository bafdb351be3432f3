"""Self-tests of the benchmark; not part of the Tier-1 suite.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
Takes about a minute: two traced cold runs of each workload.
"""

import json
import os
import re
import time

import pytest

import run
import tracer
import workloads

DEFAULT_SEED = 0

# layer metrics that must be nonzero on a workload: a refactor that routes
# around a wrapper then fails here instead of reading zero in the benchmark
HEAVY = {
    "density": ["primes.split_prime.calls", "primes.s_of_prime.calls",
                "density.predicted_density.self_s",
                "counting.count_visible_sieve.self_s",
                "counting.count_visible_sieve.primes_marked"],
    "exact": ["ideals.ideal_from_generators.calls", "ideals.is_visible.calls",
              "counting.count_visible_direct.tuples",
              "counting.mc_estimate.samples", "density.exact_window_density.s",
              "counting.direct.hnf_calls"],
    "lattice": ["counting.ideal_count_check.calls",
                "counting.region_coords.points", "counting.mc_estimate.samples",
                "numfield.norm_of_coords.calls", "numfield.make_field.s"],
}

# counts that must repeat exactly between two cold runs of one config
# (report_json.bytes is left out: the report's timings vary in length)
COUNT_SUFFIXES = (".calls", ".tuples", ".ideals", ".points", ".samples",
                  ".primes_marked", ".hnf_calls")


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_pair(request):
    """Two traced cold runs of a workload at the default seed."""
    os.makedirs(run.WORK, exist_ok=True)
    runner = run.Runner(request.param, DEFAULT_SEED,
                        deadline=time.monotonic() + 600)
    assert str(DEFAULT_SEED) in runner.golden
    # launch raises RepFailed unless the report matches the golden copy
    return request.param, [runner.launch(traced=True) for _ in range(2)]


def test_metric_names_and_units():
    s = spec()
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    for m in s["end_to_end"] + s["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"]), m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert {w["name"] for w in s["workloads"]} == set(workloads.WORKLOADS)


def test_golden_at_default_seed(traced_pair):
    name, (first, second) = traced_pair
    for res in (first, second):
        assert workloads.check_report(
            name, DEFAULT_SEED, workloads.make_config(name, DEFAULT_SEED),
            res["report"], workloads.load_golden(name)) == []


def test_lemma_rows_checked_at_every_seed():
    golden = workloads.load_golden("lattice")
    seed = max(workloads.GOLDEN_SEEDS) + 1
    assert str(seed) not in golden
    rows = [{"region": r[0], "p": r[1], "g": r[2], "norm": r[3], "count": r[4]}
            for r in golden["0"]["lemma"]]
    report = {"failed": False, "counts": [], "prediction": None,
              "oracle": None, "lemma_check": {"rows": rows}}
    cfg = workloads.make_config("lattice", seed)
    assert workloads.check_report("lattice", seed, cfg, report, golden) == []
    rows[0]["count"] += 1
    assert workloads.check_report("lattice", seed, cfg, report, golden) == [
        "lemma differ from golden copy"]


def test_counts_repeat_exactly(traced_pair):
    _, (first, second) = traced_pair
    counts = [k for k in first["layers"] if k.endswith(COUNT_SUFFIXES)]
    assert counts
    for k in counts:
        assert first["layers"][k] == second["layers"][k], k
    assert first["split_cache"] == second["split_cache"]


def test_heavy_layers_nonzero(traced_pair):
    name, (first, _) = traced_pair
    for k in HEAVY[name]:
        assert first["layers"][k] > 0, k
    assert first["split_cache"]["misses"] > 0


def test_every_layer_metric_is_produced(traced_pair):
    _, (first, second) = traced_pair
    out = run.layer_metrics([first], [first, second])
    assert {m["name"] for m in spec()["per_layer"]} <= set(out)


def test_traced_children_left_modules_unpatched(traced_pair):
    _, (first, _) = traced_pair
    assert first["restored"]
    assert "visilat.primes.ideal_from_generators" in \
        first["sites"]["ideals.ideal_from_generators"]
    assert "visilat.counting.norm_of_coords" in \
        first["sites"]["numfield.norm_of_coords"]


def test_restore_in_process():
    from visilat import counting, numfield, primes

    before = {(m.__name__, k): v for m in (numfield, primes, counting)
              for k, v in vars(m).items() if callable(v)}
    patch = tracer.install()
    try:
        assert counting.norm_of_coords is not before[
            ("visilat.counting", "norm_of_coords")]
        field = numfield.make_field("quadratic", d=-1)
        assert primes.split_prime(field, 5)
    finally:
        patch.restore()
    assert patch.is_restored()
    after = {(m.__name__, k): v for m in (numfield, primes, counting)
             for k, v in vars(m).items() if callable(v)}
    assert after == before
    names = [tracer.NAMES[i] for i in patch.recorder.name]
    assert "numfield.make_field" in names and "primes.split_prime" in names
