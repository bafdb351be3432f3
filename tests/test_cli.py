import csv
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from visilat import cli
from visilat import counting as ct
from visilat import density as dn
from visilat import experiment as ex
from visilat import ideals as il
from visilat import numfield as nf
from visilat import primes as pr
from visilat.errors import ConfigError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


GAUSSIAN = '{"kind":"quadratic","d":-1}'
RATIONAL = '{"kind":"rational"}'


def test_field_subcommand(capsys):
    code, out, _ = run_cli(capsys, "field", "--field", GAUSSIAN)
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 2 and data["discriminant"] == -4


def test_field_subcommand_rejects(capsys):
    code, _, err = run_cli(capsys, "field", "--field", '{"kind":"quadratic","d":12}')
    assert code == 3
    assert "unsupported field" in err


@pytest.mark.parametrize("descriptor, says", [
    ('{"kind":"quadratic"}', "quadratic field needs d"),
    ('{"kind":"monogenic"}', "monogenic field needs a minimal polynomial"),
    ('{"kind":"quadratic","d":[1]}', "d must be an integer"),
    ('{"kind":"quadratic","d":2.5}', "d must be an integer"),
    ('{"kind":"quadratic","d":true}', "d must be an integer"),
    ('{"kind":"monogenic","minpoly":[-1,-1,0,1.5]}',
     "minimal polynomial coefficient must be an integer")])
def test_field_subcommand_bad_descriptor_exit3(capsys, descriptor, says):
    # every descriptor is dispatched by make_field, whose message is printed
    code, _, err = run_cli(capsys, "field", "--field", descriptor)
    assert code == 3 and "Traceback" not in err
    assert err.startswith(f"unsupported field: {says}") and err.count("\n") == 1


def test_field_subcommand_integral_float(capsys):
    # 2.0 is read as the integer it is
    outs = [run_cli(capsys, "field", "--field", f'{{"kind":"quadratic","d":{d}}}')
            for d in ("-1", "-1.0")]
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_primes_subcommand(capsys):
    code, out, _ = run_cli(capsys, "primes", "--field", GAUSSIAN,
                           "--max-norm", "5")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0] == {"norm": 2, "p": 2, "f": 1, "e": 2, "g": [1, 1]}
    assert [r["norm"] for r in rows] == [2, 5, 5]


# sha256 of `visilat primes --max-norm 10000` per field, as the earlier
# per-prime splitting (closed forms for quadratic fields, Cantor-Zassenhaus on
# tuples otherwise) printed it; the batched engine must print the same bytes
PRIMES_10000 = {
    '{"kind":"rational"}': "a22b09e89b633bf7ccfcdd2b39651d6487c03d1fd74265f12c26a9284d3d29ac",
    '{"kind":"quadratic","d":-1}': "54133d8f5bfe7eacb1f9755e95b8bc34864afa1d75938f4e0ef74b4367714e38",
    '{"kind":"quadratic","d":5}': "2ee9e8153d7b4d532fd37f5785cc3219a4db5a1110cc9b9ab7b5e14390774572",
    '{"kind":"quadratic","d":-5}': "d120c84f1460b658a2c9c6c26007240c93ada12657d198b20f4196f43ab93093",
    '{"kind":"monogenic","minpoly":[-1,-1,0,1]}':
        "997c912fd34fa48e56c2499576c6392b89439f3748a094e823689f0f33d57d4a",
    '{"kind":"monogenic","minpoly":[1,-3,0,1]}':
        "0b8bd4cb789c3182784989d8e3117e44546d7b85e9a00f6315202db59f34c81a",
    '{"kind":"monogenic","minpoly":[1,0,0,0,1]}':
        "a05c0b959f70d661880bf1a34013dd2fe67be86c46813920809f48d6920d709e",
    '{"kind":"monogenic","minpoly":[-1,-1,0,0,1]}':
        "c2e6f6bf3d1b4bdca77dab4514289fdf2fa84d7e8cef8370873f6f02cf84288d",
    '{"kind":"monogenic","minpoly":[1,1,1,1,1,1,1]}':
        "ea46814a429f1c880907f9b959dbfbbb243d5278687a353847f29663a368165d",
}


@pytest.mark.filterwarnings("ignore:.*class-number-one whitelist")
@pytest.mark.parametrize("descriptor", PRIMES_10000)
def test_primes_subcommand_output_unchanged(capsys, descriptor):
    code, out, _ = run_cli(capsys, "primes", "--field", descriptor, "--max-norm", "10000")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == PRIMES_10000[descriptor]


def test_predict_subcommand(capsys):
    code, out, _ = run_cli(capsys, "predict", "--field", RATIONAL,
                           "--m", "2", "--s", "[[[0],[0]]]", "--X", "1000")
    assert code == 0
    data = json.loads(out)
    assert data["zero"] is None and data["X"] == 1000
    assert data["lo"].startswith("0.6067") and data["hi"].startswith("0.6080")


def test_count_subcommand_to_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "count", "--field", RATIONAL, "--m", "2",
                         "--s", "[[[0],[0]]]", "--region", "cube:L=10",
                         "--mode", "sieve", "--out", str(out_path))
    assert code == 0
    row = json.loads(out_path.read_text())
    import math
    want = sum(1 for a in range(-10, 11) for b in range(-10, 11)
               if math.gcd(a, b) == 1)
    assert row["visible"] == want and row["total"] == 441
    assert row["mode"] == "sieve" and "wall_time_s" in row
    assert row["prime_norm_bound"] == 10


def test_count_mc_subcommand(capsys):
    code, out, _ = run_cli(capsys, "count", "--field", RATIONAL, "--m", "2",
                           "--s", "[[[0],[0]]]", "--region", "cube:L=100",
                           "--mode", "mc", "--samples", "500", "--seed", "7")
    assert code == 0
    row = json.loads(out)
    assert row["total"] == 500 and row["stderr"] is not None


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--field", GAUSSIAN, "--m", "2",
                           "--s", "[[[0,0],[0,0]]]", "--window-t", "3")
    assert code == 0
    data = json.loads(out)
    want = Fraction(3, 4) * Fraction(80, 81) * Fraction(24, 25) ** 2
    assert Fraction(int(data["num"]), int(data["den"])) == want


def test_lemma_check_subcommand(capsys):
    code, out, _ = run_cli(capsys, "lemma-check", "--field", GAUSSIAN,
                           "--region", "cube:L=10", "--max-prime-norm", "9")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["norm"] for r in rows] == [2, 5, 5, 9]
    assert all("normalized_error" in r for r in rows)


@pytest.mark.filterwarnings("ignore:.*class-number-one")
def test_lemma_check_tiny_ball_is_inf(capsys, tmp_path):
    # the normalized error's divisor underflows to 0.0 on both doors
    cubic = '{"kind":"monogenic","minpoly":[-1,-1,0,1]}'
    for field, R in ((cubic, "1e-200"), (GAUSSIAN, "1e-400")):
        code, out, err = run_cli(capsys, "lemma-check", "--field", field, "--region",
                                 f"ball:R={R}", "--max-prime-norm", "5")
        assert code == 0 and "Traceback" not in err
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows and all(r["normalized_error"] == "inf" for r in rows)
    cfg = base_config(tmp_path, field=json.loads(GAUSSIAN), s=[[[0, 0], [0, 0]]],
                      regions=[{"shape": "ball", "R": "1e-400"}],
                      modes=["lemma-check"], lemma_max_prime_norm=5)
    code, _, err = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
    assert code == 0 and "Traceback" not in err
    report = json.loads((tmp_path / "report.json").read_text())
    rows = report["lemma_check"]["rows"]
    assert rows and all(r["normalized_error"] == "inf" for r in rows)


@pytest.mark.parametrize("region, says", [
    ("pyramid:Z=3", "unknown region shape"), ("cube:R=3", "missing key 'L'"),
    ("cube3", "bad region syntax")])
def test_bad_region_syntax(capsys, region, says):
    code, _, err = run_cli(capsys, "count", "--field", RATIONAL, "--m", "2",
                           "--s", "[[[0],[0]]]", "--region", region)
    assert code == 2
    assert "invalid configuration" in err and says in err


def base_config(tmp_path, **over):
    cfg = {
        "field": {"kind": "rational"},
        "m": 2,
        "s": [[[0], [0]]],
        "regions": [{"shape": "cube", "L": 30}],
        "X": 1000,
        "modes": ["predict", "sieve"],
        "seed": 3,
        "tolerance": 0.02,
        "out": str(tmp_path / "report.json"),
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, cfg):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_run_pipeline(capsys, tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    code, _, _ = run_cli(capsys, "run", "--config", path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["failed"] is False
    assert report["counts"][0]["pass"] is True
    assert report["prediction"]["X"] == 1000


def test_run_z2_discrepancy(capsys, tmp_path):
    cfg = base_config(tmp_path, X=10 ** 4,
                      regions=[{"shape": "cube", "L": 100},
                               {"shape": "cube", "L": 1000}],
                      tolerance=0.02)
    path = write_config(tmp_path, cfg)
    code, _, _ = run_cli(capsys, "run", "--config", path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    big = [r for r in report["counts"] if r["region"] == "cube:L=1000"][0]
    assert float(big["discrepancy"]) < 0.005


def test_run_empty_regions_exit2(capsys, tmp_path):
    path = write_config(tmp_path, base_config(tmp_path, regions=[]))
    code, _, err = run_cli(capsys, "run", "--config", path)
    assert code == 2


def test_run_unsupported_field_exit3(capsys, tmp_path):
    path = write_config(tmp_path, base_config(
        tmp_path, field={"kind": "quadratic", "d": 8}))
    code, _, _ = run_cli(capsys, "run", "--config", path)
    assert code == 3


@pytest.mark.parametrize("field, says", [
    ([1], "field descriptor must be a JSON object"),
    (None, "field descriptor must be a JSON object"),
    ({"kind": "monogenic"}, "monogenic field needs a minimal polynomial"),
    ({"kind": "quadratic"}, "quadratic field needs d")])
def test_run_bad_field_descriptor_exit3(capsys, tmp_path, field, says):
    path = write_config(tmp_path, base_config(tmp_path, field=field))
    code, _, err = run_cli(capsys, "run", "--config", path)
    assert code == 3 and "Traceback" not in err
    assert err.startswith(f"unsupported field: {says}") and err.count("\n") == 1


def test_run_tolerance_failure_exit1(capsys, tmp_path):
    path = write_config(tmp_path, base_config(tmp_path, tolerance=1e-12))
    code, _, _ = run_cli(capsys, "run", "--config", path)
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["failed"] is True


def test_run_cap_exceeded_writes_partial_report(capsys, tmp_path):
    cfg = base_config(tmp_path, caps={"tuple": 100})
    path = write_config(tmp_path, cfg)
    code, _, _ = run_cli(capsys, "run", "--config", path)
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["failed"] is True
    assert "error" in report["counts"][0]
    assert report["prediction"] is not None  # partial results survive


def test_run_transform_overflow_exit2(capsys, tmp_path):
    # a basis transform whose int64 image would wrap is refused per mode
    cfg = base_config(tmp_path, field={"kind": "quadratic", "d": -1},
                      s=[[[0, 0], [0, 0]]], modes=["direct", "sieve", "mc"],
                      regions=[{"shape": "cube", "L": 3,
                                "basis_transform": [[1, 2 ** 62], [0, 1]]}])
    path = write_config(tmp_path, cfg)
    code, _, err = run_cli(capsys, "run", "--config", path)
    assert code == 2 and "Traceback" not in err
    report = json.loads((tmp_path / "report.json").read_text())
    assert [r["mode"] for r in report["counts"]] == ["direct", "sieve", "mc"]
    assert all("basis transform" in r["error"] for r in report["counts"])
    assert report["failed"] is True


def test_run_sieve_prime_bound_cap_exit2(capsys, tmp_path):
    # a point of S far outside the cube gives B ~ 10^30: the sieve is
    # refused before its prime table is built, and the direct row is kept
    cfg = base_config(tmp_path, field={"kind": "quadratic", "d": -1},
                      s=[[[10 ** 15, 0], [10 ** 15, 0]]], modes=["direct", "sieve"],
                      regions=[{"shape": "cube", "L": 2}])
    path = write_config(tmp_path, cfg)
    code, _, err = run_cli(capsys, "run", "--config", path)
    assert code == 2 and "Traceback" not in err
    report = json.loads((tmp_path / "report.json").read_text())
    direct, sieve = report["counts"]
    assert direct["mode"] == "direct" and direct["total"] == 25 ** 2
    assert sieve["mode"] == "sieve" and "prime norm bound" in sieve["error"]
    assert report["failed"] is True


def test_run_oracle_cap_exceeded_exit2(capsys, tmp_path):
    # the CRT cap refuses the oracle; the sieve row survives in the report
    cfg = base_config(tmp_path, field={"kind": "quadratic", "d": -1},
                      s=[[[0, 0], [0, 0]]], modes=["sieve", "oracle"],
                      regions=[{"shape": "cube", "L": 3}], caps={"crt": 100})
    path = write_config(tmp_path, cfg)
    code, _, err = run_cli(capsys, "run", "--config", path)
    assert code == 2 and "Traceback" not in err
    report = json.loads((tmp_path / "report.json").read_text())
    assert "CRT state space exceeds cap" in report["oracle"]["error"]
    assert report["counts"][0]["visible"] > 0 and report["failed"] is True


def test_run_lemma_check_cap_exceeded_exit2(capsys, tmp_path):
    # a transform that would overflow int64 refuses the lemma check
    cfg = base_config(tmp_path, field={"kind": "quadratic", "d": -1},
                      s=[[[0, 0], [0, 0]]], modes=["predict", "lemma-check"],
                      regions=[{"shape": "cube", "L": 3,
                                "basis_transform": [[1, 2 ** 62], [0, 1]]}])
    path = write_config(tmp_path, cfg)
    code, _, err = run_cli(capsys, "run", "--config", path)
    assert code == 2 and "Traceback" not in err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["lemma_check"] == {
        "error": "basis transform would overflow int64 (estimated size "
                 f"{3 * 2 ** 62 + 3})"}
    assert report["prediction"] is not None and report["failed"] is True


def test_run_oracle_mode(capsys, tmp_path):
    cfg = base_config(tmp_path, field={"kind": "quadratic", "d": -1},
                      s=[[[0, 0], [0, 0]]],
                      modes=["oracle"], oracle_window_t=3)
    path = write_config(tmp_path, cfg)
    code, _, _ = run_cli(capsys, "run", "--config", path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    got = Fraction(int(report["oracle"]["num"]), int(report["oracle"]["den"]))
    prod = Fraction(1)
    for f in report["oracle"]["factors"]:
        prod *= Fraction(int(f["num"]), int(f["den"]))
    assert got == prod == Fraction(3, 4) * Fraction(80, 81) * Fraction(24, 25) ** 2


def test_run_lemma_check_mode(capsys, tmp_path):
    cfg = base_config(tmp_path, modes=["lemma-check"], lemma_max_prime_norm=7)
    path = write_config(tmp_path, cfg)
    code, _, _ = run_cli(capsys, "run", "--config", path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["lemma_check"]["rows"]) == 4  # primes 2,3,5,7 x 1 region


def test_run_deterministic(capsys, tmp_path):
    cfg = base_config(tmp_path, modes=["predict", "sieve", "mc"], samples=300)
    path = write_config(tmp_path, cfg)
    run_cli(capsys, "run", "--config", path)
    first = json.loads((tmp_path / "report.json").read_text())
    run_cli(capsys, "run", "--config", path)
    second = json.loads((tmp_path / "report.json").read_text())
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_run_validates_m_and_duplicates(tmp_path):
    with pytest.raises(ConfigError):
        ex.load_config(base_config(tmp_path, m=1))
    with pytest.warns(UserWarning):
        cfg = ex.load_config(base_config(tmp_path, s=[[[0], [0]], [[0], [0]]]))
    assert len(cfg.S) == 1
    with pytest.raises(ConfigError):
        ex.load_config(base_config(tmp_path, s=[]))
    with pytest.raises(ConfigError):
        ex.load_config(base_config(tmp_path, modes=["warp"]))


def test_s_file_loading(tmp_path):
    s_path = tmp_path / "s.json"
    s_path.write_text("[[[0],[0]],[[1],[1]]]")
    cfg = base_config(tmp_path)
    del cfg["s"]
    cfg["s_file"] = str(s_path)
    loaded = ex.load_config(cfg)
    assert len(loaded.S) == 2


def test_csv_export(capsys, tmp_path):
    # a transformed region's label holds commas; its row keeps the header's width
    cfg = base_config(tmp_path, field=json.loads(GAUSSIAN), s=[[[0, 0], [0, 0]]],
                      tolerance=1, regions=[{"shape": "cube", "L": 30}, {
                          "shape": "cube", "L": 3, "basis_transform": [[1, 1], [0, 1]]}])
    path = write_config(tmp_path, cfg)
    csv_path = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "run", "--config", path, "--csv", str(csv_path))
    assert code == 0
    with open(csv_path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == "region,mode,total,visible,density,lo,hi,discrepancy".split(",")
    assert len(rows) == 2 and all(len(r) == len(header) for r in rows)
    labels = [r.label() for r in ex.load_config(cfg).regions]
    assert [r[0] for r in rows] == labels and labels[1] == "cube:L=3:T=[[1,1],[0,1]]"
    report = json.loads((tmp_path / "report.json").read_text())
    # densities round-trip identically between JSON and CSV
    assert [r[4] for r in rows] == [c["density"] for c in report["counts"]]


def test_csv_mc_stderr_column(capsys, tmp_path):
    cfg = base_config(tmp_path, modes=["predict", "sieve", "mc"], samples=200)
    path = write_config(tmp_path, cfg)
    csv_path = tmp_path / "out.csv"
    run_cli(capsys, "run", "--config", path, "--csv", str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].endswith(",stderr")
    rows = [line.split(",") for line in lines[1:]]
    for r in rows:
        if r[1] == "mc":
            assert r[-1] != ""
        else:
            assert r[-1] == ""


# numeric settings of the wrong JSON type
BAD_NUMBERS = {"X": None, "seed": [1], "samples": None, "tolerance": [0.1],
               "oracle_window_t": None, "lemma_max_prime_norm": [30],
               "caps.region": None, "caps.tuple": [1], "caps.crt": "many"}


# settings that are not numbers, of the wrong JSON type
BAD_KINDS = {"regions=5": "regions must be a JSON list",
             "regions=true": "regions must be a JSON list",
             'regions="cube"': "regions must be a JSON list",
             "out=true": "out must be a JSON string or null",
             "out=5": "out must be a JSON string or null",
             "out=[1]": "out must be a JSON string or null",
             # open() would read an int or a bool as a file descriptor
             "s_file=true": "s_file must be a JSON string or null",
             "s_file=0": "s_file must be a JSON string or null",
             "s_file=[1]": "s_file must be a JSON string or null"}


@pytest.mark.parametrize("case, says", [
    ("config", "no-such-dir"), ("s_file", "no-such-dir"),
    ("csv", "no-such-dir"), ("out", "no-such-dir"),
    ("caps", "caps must be a JSON object"),
    ("modes", "modes must be a JSON list")] + [
    (key, "must be numbers") for key in BAD_NUMBERS] + list(BAD_KINDS.items()))
def test_run_bad_input_exit2(capsys, tmp_path, case, says):
    # each input error gives one "invalid configuration" line, not a crash
    missing = str(tmp_path / "no-such-dir" / "file")
    cfg = base_config(tmp_path)
    argv = []
    if case == "s_file":
        del cfg["s"]
        cfg["s_file"] = missing
    elif case == "csv":
        argv = ["--csv", missing]
    elif case == "out":
        cfg["out"] = missing
    elif case == "caps":
        cfg["caps"] = [1, 2]
    elif case == "modes":
        cfg["modes"] = "sieve"
    elif case in BAD_KINDS:
        key, value = case.split("=")
        cfg[key] = json.loads(value)
    elif case in BAD_NUMBERS:
        *caps, key = case.split(".")
        (cfg.setdefault("caps", {}) if caps else cfg)[key] = BAD_NUMBERS[case]
    path = missing if case == "config" else write_config(tmp_path, cfg)
    code, _, err = run_cli(capsys, "run", "--config", path, *argv)
    assert code == 2 and "Traceback" not in err
    assert err.startswith("invalid configuration: ") and err.count("\n") == 1
    assert says in err


# integer settings given a bool or a fraction, which int() would read as 1
# or truncate; a region side and a coordinate of S likewise
BAD_INTEGERS = [("X", 2.7), ("X", True), ("seed", 0.5), ("samples", 150.5),
                ("oracle_window_t", True), ("lemma_max_prime_norm", 30.5),
                ("caps.region", False), ("caps.tuple", 1e9 + 0.5),
                ("caps.crt", 2.5), ("regions", [{"shape": "cube", "L": 2.7}]),
                ("s", [[[0.5], [0]]]), ("s", [[[True], [0]]])]


@pytest.mark.parametrize("key, value", BAD_INTEGERS)
def test_run_fraction_or_bool_for_integer_exit2(capsys, tmp_path, key, value):
    cfg = base_config(tmp_path)
    *caps, name = key.split(".")
    (cfg.setdefault("caps", {}) if caps else cfg)[name] = value
    code, _, err = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
    assert code == 2 and "Traceback" not in err
    assert err.startswith("invalid configuration: ") and "not an integer" in err


@pytest.mark.parametrize("m", [2.5, True, None, "x", 1, 1.0])
def test_run_m_not_an_integer_exit2(capsys, tmp_path, m):
    # m reads through the integer rule of the other settings
    cfg = base_config(tmp_path, m=m)
    code, out, err = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == "invalid configuration: m must be an integer >= 2\n"


def test_run_integral_floats_accepted(tmp_path):
    cfg = ex.load_config(base_config(
        tmp_path, m=2.0, X=1000.0, seed=3.0, s=[[[0.0], [0]]],
        regions=[{"shape": "cube", "L": 30.0}], tolerance=0))
    got = (cfg.m, cfg.X, cfg.seed, cfg.regions[0].L)
    assert got == (2, 1000, 3, 30) and all(type(v) is int for v in got)
    assert cfg.tolerance == 0.0
    assert cfg.S[0].tolist() == [[0], [0]]


# a ball radius, basis-transform entry or tolerance that Fraction(), int()
# or float() would read as another number, or that escaped as a traceback
INF, NAN = float("inf"), float("nan")
BAD_REALS = [("regions", [{"shape": "ball", "R": True}]),
             ("regions", [{"shape": "ball", "R": INF}]),
             ("regions", [{"shape": "ball", "R": "1/0"}]),
             ("regions", [{"shape": "cube", "L": 3, "basis_transform": [[1.5]]}]),
             ("regions", [{"shape": "cube", "L": 3, "basis_transform": [[True]]}]),
             ("tolerance", True), ("tolerance", INF), ("tolerance", NAN),
             ("tolerance", -1)]


@pytest.mark.parametrize("key, value", BAD_REALS, ids=[
    "R-true", "R-inf", "R-1/0", "T-1.5", "T-true", "tol-true", "tol-inf", "tol-nan",
    "tol-negative"])
def test_run_bool_or_nonfinite_number_exit2(capsys, tmp_path, key, value):
    cfg = base_config(tmp_path, **{key: value})
    code, _, err = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
    assert code == 2 and "Traceback" not in err
    assert err.startswith("invalid configuration: ") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


# a transform that is not a matrix of integers is refused as in a config
@pytest.mark.parametrize("T, says", [
    ("[[1.5,0],[0,1]]", "not an integer"), ("[[true,0],[0,1]]", "not an integer"),
    ("5", "bad region"), ("[1,2]", "bad region"), ("[[1,0],[0,null]]", "bad region"),
    ("[[1,0],[0,[1]]]", "bad region")])
def test_count_bad_basis_transform_exit2(capsys, T, says):
    code, out, err = run_cli(capsys, "count", "--field", GAUSSIAN, "--m", "2",
                             "--s", "[[[0,0],[0,0]]]", "--region", "cube:L=3",
                             "--basis-transform", T)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("invalid configuration: ") and says in err


def test_subcommands_match_run(capsys, tmp_path):
    # count and lemma-check give run's rows: one S loader, region parser,
    # count dispatch and lemma loop serve both
    s, region = "[[[0,0],[0,0]],[[1,2],[-1,1]]]", "ball:R=4"
    cfg = base_config(tmp_path, field=json.loads(GAUSSIAN), s=json.loads(s),
                      regions=[{"shape": "ball", "R": 4}], samples=300, seed=5,
                      modes=["direct", "sieve", "mc", "lemma-check"],
                      lemma_max_prime_norm=13)
    code, _, _ = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [r["mode"] for r in report["counts"]] == ["direct", "sieve", "mc"]
    for want in report["counts"]:
        code, out, _ = run_cli(capsys, "count", "--field", GAUSSIAN, "--m", "2",
                               "--s", s, "--region", region, "--mode", want["mode"],
                               "--samples", "300", "--seed", "5")
        row = json.loads(out)
        del row["wall_time_s"]
        assert code == 0 and row == want
    code, out, _ = run_cli(capsys, "lemma-check", "--field", GAUSSIAN,
                           "--region", region, "--max-prime-norm", "13")
    keys = ("p", "g", "norm", "count")
    got = [tuple(json.loads(line)[k] for k in keys) for line in out.splitlines()]
    want = [tuple(r[k] for k in keys) for r in report["lemma_check"]["rows"]]
    assert code == 0 and got == want and len(got) == 6


def test_no_command_builds_an_hnf(capsys, tmp_path, monkeypatch):
    # the HNF engine is the tests' reference; every mode takes ideal_index
    def boom(*args):
        raise AssertionError("an HNF was built")

    monkeypatch.setattr(il, "ideal_from_generators", boom)
    monkeypatch.setattr(pr, "ideal_from_generators", boom)
    cfg = base_config(tmp_path, field={"kind": "quadratic", "d": -7},
                      s=[[[0, 0], [0, 0]], [[1, 2], [-1, 1]], [[2, 0], [0, 2]]],
                      regions=[{"shape": "cube", "L": 3}], samples=300,
                      modes=list(ex.VALID_MODES), lemma_max_prime_norm=11)
    code, _, err = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
    assert code == 0, err
    report = json.loads((tmp_path / "report.json").read_text())
    assert [r["mode"] for r in report["counts"]] == ["direct", "sieve", "mc"]
    assert report["prediction"] and report["oracle"] and report["lemma_check"]["rows"]


def test_no_command_imports_numpy_random(tmp_path):
    # Monte Carlo draws its own Philox stream: a fresh interpreter that cannot
    # import numpy.random runs every mode on Q(sqrt-7) and mc on x^3 - x - 1
    paths = []
    for i, over in enumerate([
            dict(field={"kind": "quadratic", "d": -7}, modes=list(ex.VALID_MODES),
                 s=[[[0, 0], [0, 0]], [[1, 0], [0, 1]], [[2, -1], [1, 1]]],
                 regions=[{"shape": "cube", "L": 3}, {"shape": "ball", "R": 4}],
                 samples=300, lemma_max_prime_norm=11),
            dict(field={"kind": "monogenic", "minpoly": [-1, -1, 0, 1]}, modes=["mc"],
                 s=[[[0, 0, 0], [0, 0, 0]]], samples=300,
                 regions=[{"shape": "ball", "R": 30}, {"shape": "cube", "L": 20}])]):
        cfg = base_config(tmp_path, out=str(tmp_path / f"report{i}.json"), **over)
        paths.append(tmp_path / f"config{i}.json")
        paths[-1].write_text(json.dumps(cfg))
    code = ("import sys, warnings\n"
            "sys.modules['numpy.random'] = None\n"
            "warnings.simplefilter('ignore')\n"
            "from visilat.cli import main\n"
            f"for path in {[str(p) for p in paths]!r}:\n"
            "    assert main(['run', '--config', path]) == 0, path\n")
    src = os.path.dirname(os.path.dirname(ct.__file__))
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                   check=True)
    reports = [json.loads((tmp_path / f"report{i}.json").read_text()) for i in range(2)]
    assert [sum(r["mode"] == "mc" for r in rep["counts"]) for rep in reports] == [2, 2]


def test_lemma_check_builds_no_rows(capsys, tmp_path, monkeypatch):
    # the lemma check counts over the runs of the last coordinate alone
    def boom(region, region_cap=None):
        raise AssertionError("the region's rows were built")

    monkeypatch.setattr(ct, "region_coords", boom)
    cfg = base_config(tmp_path, field={"kind": "monogenic", "minpoly": [-1, -1, 0, 1]},
                      s=[[[0, 0, 0], [0, 0, 0]]], modes=["lemma-check"],
                      regions=[{"shape": "cube", "L": 6}, {"shape": "ball", "R": 7}],
                      lemma_max_prime_norm=30)
    code, _, err = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
    assert code == 0, err
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["lemma_check"]["rows"]) == 2 * len(pr.primes_up_to_norm(
        nf.make_field("monogenic", minpoly=[-1, -1, 0, 1]), 30))


# settings out of range are refused when the config loads: a run would fail
# on them only after the prediction and counts
LATE_FAILURES = [({"seed": -1, "modes": ["mc"]}, "seed must lie in [0, 2^128)"),
                 ({"seed": 2 ** 128, "modes": ["mc"]}, "seed must lie in [0, 2^128)"),
                 ({"samples": 5, "modes": ["mc"]}, "samples must be >= 100"),
                 # Monte Carlo would hold samples * m points
                 ({"samples": 10 ** 12, "modes": ["mc"]},
                  "samples must be <= caps.region = 4194304"),
                 ({"oracle_window_t": 0, "modes": ["oracle"]},
                  "oracle_window_t must be >= 1"),
                 ({"lemma_max_prime_norm": 1, "modes": ["lemma-check"]},
                  "lemma_max_prime_norm must be >= 2"),
                 # the lemma check's prime sieve would take that many bytes
                 ({"lemma_max_prime_norm": 10 ** 20, "modes": ["lemma-check"]},
                  "lemma_max_prime_norm must be <= caps.region = 4194304"),
                 # the prime sieve behind the product would take X bytes,
                 # or overflow
                 ({"X": 10 ** 20}, "X must be <= caps.region = 4194304"),
                 ({"X": 1001, "caps": {"region": 1000}},
                  "X must be <= caps.region = 1000"),
                 # the oracle would hold that many bytes of CRT cells
                 ({"caps": {"crt": 10 ** 20}, "modes": ["oracle"]},
                  "caps.crt must be <= 1000000000"),
                 # X's prime sieve would be bounded by that cap alone
                 ({"X": 10 ** 20, "caps": {"region": 10 ** 21}, "modes": ["predict"]},
                  "caps.region must be <= 67108864")]


@pytest.mark.parametrize("over, says", LATE_FAILURES, ids=[
    "seed-negative", "seed-2^128", "samples", "samples-10^12", "window", "lemma-bound",
    "lemma-bound-10^20", "X-10^20", "X-over-region-cap", "crt-cap-10^20",
    "region-cap-10^21"])
def test_run_out_of_range_setting_exit2(capsys, tmp_path, over, says):
    cfg = base_config(tmp_path, **over)
    with pytest.raises(ConfigError) as exc:
        ex.load_config(cfg)
    assert str(exc.value) == says
    code, _, err = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
    assert code == 2 and "Traceback" not in err
    assert err.startswith("invalid configuration: ") and err.count("\n") == 1
    assert says in err
    assert not (tmp_path / "report.json").exists()


def test_run_region_cap_at_its_bound_loads(tmp_path):
    cfg = ex.load_config(base_config(tmp_path, caps={"region": 2 ** 26}))
    assert cfg.region_cap == ex.MAX_REGION_CAP == 2 ** 26


@pytest.mark.parametrize("argv, says", [
    (["count", "--m", "2", "--s", "[[[0,0],[0,0]]]", "--region", "ball:R=1/0"],
     "not a finite number"),
    (["lemma-check", "--region", "ball:R=1/0"], "not a finite number"),
    (["count", "--m", "2", "--s", "[[[0,0],[0,0]]]", "--region", "cube:L=3",
      "--mode", "mc", "--seed", "-1"], "seed must lie in [0, 2^128)"),
    (["count", "--m", "2", "--s", "[[[0,0],[0,0]]]", "--region", "cube:L=3",
      "--mode", "mc", "--samples", str(10 ** 12)], "--samples must be <= 4194304"),
    # numpy's int64 bounds, named by the region rather than by numpy
    (["count", "--m", "2", "--s", "[[[0,0],[0,0]]]", "--region", f"cube:L={2 ** 63}",
      "--mode", "mc"], f"cube:L={2 ** 63}: Monte Carlo draws need L < 2^63"),
    # refused by flag name before any work, not by the layer that would fail
    (["primes", "--max-norm", "1"], "--max-norm must be >= 2"),
    (["lemma-check", "--region", "cube:L=3", "--max-prime-norm", "1"],
     "--max-prime-norm must be >= 2"),
    # a norm bound is a prime sieve of that many bytes, bounded like a region
    (["primes", "--max-norm", str(10 ** 20)], "--max-norm must be <= 4194304"),
    (["lemma-check", "--region", "cube:L=3", "--max-prime-norm", str(10 ** 20)],
     "--max-prime-norm must be <= 4194304"),
    (["oracle", "--m", "2", "--s", "[[[0,0],[0,0]]]", "--window-t", "0"],
     "--window-t must be >= 1"),
    (["oracle", "--m", "2", "--s", "[[[0,0],[0,0]]]", "--window-t", "-1"],
     "--window-t must be >= 1"),
    (["oracle", "--m", "2", "--s", "[[[0,0],[0,0]]]", "--crt-cap", str(10 ** 20)],
     "--crt-cap must be <= 1000000000"),
    (["predict", "--m", "2", "--s", "[[[0,0],[0,0]]]", "--X", str(10 ** 20)],
     "--X must be <= 4194304"),
    (["predict", "--m", "2", "--s", "[[[0,0],[0,0]]]", "--X", "1"],
     "--X must be >= 2"),
    # an S that is not a list of lists of vectors, which iterating would
    # meet as a TypeError
    (["predict", "--m", "2", "--s", "5"], "S must list points"),
    (["predict", "--m", "2", "--s", "[[0,0]]"], "S must list points")],
    ids=["count-R-1/0", "lemma-check-R-1/0", "count-seed-negative",
         "count-samples-10^12", "count-mc-L-2^63",
         "primes-max-norm-1", "lemma-check-max-prime-norm-1",
         "primes-max-norm-10^20", "lemma-check-max-prime-norm-10^20",
         "oracle-window-t-0",
         "oracle-window-t-negative", "oracle-crt-cap-10^20", "predict-X-10^20",
         "predict-X-1",
         "predict-s-number", "predict-s-flat-point"])
def test_cli_out_of_range_argument_exit2(capsys, argv, says):
    code, out, err = run_cli(capsys, *argv, "--field", GAUSSIAN)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("invalid configuration: ") and says in err


def test_huge_crt_window_refused_before_any_prime(capsys, tmp_path,
                                                  monkeypatch):
    # a state space of at least 2^(2 t) is refused before the sieve for the
    # first t rational primes is built, by `oracle` and by `run` alike
    def boom(t):
        raise AssertionError("rational primes listed")

    monkeypatch.setattr(nf, "first_rational_primes", boom)
    says = ("CRT state space exceeds cap (estimated size "
            f">= 2^{2 * 10 ** 20})")
    code, out, err = run_cli(capsys, "oracle", "--field", GAUSSIAN, "--m", "2",
                             "--s", "[[[0,0],[0,0]]]", "--window-t",
                             str(10 ** 20))
    assert code == 2 and out == "" and err == f"invalid configuration: {says}\n"
    cfg = base_config(tmp_path, modes=["oracle"], oracle_window_t=10 ** 20)
    code, _, err = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
    assert code == 2 and "Traceback" not in err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["oracle"] == {"error": says} and report["failed"] is True


def test_report_helpers_match_fraction_path(gaussian):
    # lo, hi and each discrepancy read off the unreduced num/den equal the
    # reduced-Fraction path byte for byte: random counts, a count equal to
    # the midpoint, one a hair above it, and a zero certificate
    field = gaussian
    S = [[[0, 0], [0, 0]], [[1, 2], [-1, 3]], [[4, 0], [2, 2]]]
    square = [il.point(field, [[a, 0], [b, 0]]) for a in (0, 1) for b in (0, 1)]
    ivs = [dn.predicted_density(field, S, 2, X) for X in (2, 50, 10 ** 3)]
    ivs.append(dn.predicted_density(field, square, 2, 50))
    assert ivs[-1].zero_certificate is not None
    region, rng = ct.cube_region(field, 3), random.Random(12)
    for iv in ivs:
        pred = ex.prediction_to_json(iv)
        assert pred["lo"] == dn.decimal_str(iv.lo, 30, "down")
        assert pred["hi"] == dn.decimal_str(iv.hi, 30, "up")
        mid = (iv.lo + iv.hi) / 2
        xs = [Fraction(rng.randrange(t + 1), t)
              for t in (rng.randrange(1, 10 ** k) for k in range(1, 13))]
        for x in xs + [mid, mid + Fraction(1, 10 ** 40)]:
            res = ct.CountResult(x.numerator, x.denominator, x, "sieve", region)
            for tol in (0.01, float(abs(x - mid))):
                row = ex.count_to_json(res, iv, tol)
                assert row["discrepancy"] == ex._fmt(abs(x - mid))
                assert row["pass"] is (float(abs(x - mid)) <= tol)


# an in-range value of every setting of the table, none of them its default
NON_DEFAULT = {"X": 500, "seed": 7, "samples": 300, "tolerance": 0.5,
               "caps.region": 5000, "caps.tuple": 10 ** 6, "caps.crt": 1000,
               "oracle_window_t": 2, "lemma_max_prime_norm": 11}


def test_echo_round_trips_every_setting(tmp_path):
    # a row that echo() or load_config() leaves out comes back as its default
    assert set(NON_DEFAULT) == set(ex.SETTINGS)
    raw = base_config(tmp_path)
    for key, value in NON_DEFAULT.items():
        *cap, name = key.split(".")
        (raw.setdefault("caps", {}) if cap else raw)[name] = value
    first = ex.load_config(raw)
    echo = first.echo()
    echo["regions"] = raw["regions"]  # echoed as labels
    again = ex.load_config(echo)
    for key, f in ex.SETTINGS.items():
        assert getattr(first, f.name) == getattr(again, f.name) == NON_DEFAULT[key]
        assert NON_DEFAULT[key] != f.default


# each range-checked flag's least and greatest value (None: unbounded); the
# subcommands take no caps, so a region-bounded flag stops at 2^22
FLAG_BOUNDS = {"--X": (2, 2 ** 22), "--samples": (100, 2 ** 22),
               "--window-t": (1, None), "--crt-cap": (1, 10 ** 9),
               "--max-norm": (2, 2 ** 22), "--max-prime-norm": (2, 2 ** 22)}


@pytest.mark.parametrize("flag", FLAG_BOUNDS)
def test_flag_bounds(flag):
    assert set(FLAG_BOUNDS) == set(cli.SETTING_FLAGS)
    key, (least, greatest) = cli.SETTING_FLAGS[flag], FLAG_BOUNDS[flag]
    cap = cli.DEFAULTS.region_cap

    def check(value):
        ex.check_setting(key, value, cap, flag)

    check(least)
    with pytest.raises(ConfigError, match=f"^{flag} must be >= {least}$"):
        check(least - 1)
    if greatest is not None:
        check(greatest)
        with pytest.raises(ConfigError, match=f"^{flag} must be <= {greatest}$"):
            check(greatest + 1)
    else:
        check(10 ** 30)


@pytest.mark.parametrize("over, key", [
    ({"lemma_max_prime_nrom": 30}, "lemma_max_prime_nrom"),
    ({"caps": {"regoin": 10}}, "caps.regoin"),
    # a cap at the top level, a top-level setting under caps, a dotted key
    ({"region": 10}, "region"), ({"caps": {"X": 10}}, "caps.X"),
    ({"caps.region": 10}, "caps.region")])
def test_run_unknown_key_exit2(capsys, tmp_path, over, key):
    cfg = base_config(tmp_path, **over)
    with pytest.raises(ConfigError, match=f"^unknown key '{key}'$"):
        ex.load_config(cfg)
    code, _, err = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
    assert code == 2 and err == f"invalid configuration: unknown key '{key}'\n"
    assert not (tmp_path / "report.json").exists()


def test_run_crt_cap_below_one_exit2(capsys, tmp_path):
    # refused when the config loads, as `oracle --crt-cap 0` is, not at the oracle
    cfg = base_config(tmp_path, modes=["predict", "oracle"], caps={"crt": 0})
    code, _, err = run_cli(capsys, "run", "--config", write_config(tmp_path, cfg))
    assert code == 2 and err == "invalid configuration: caps.crt must be >= 1\n"
    assert not (tmp_path / "report.json").exists()
    assert ex.load_config(base_config(tmp_path, caps={"crt": 1})).crt_cap == 1


def test_primes_and_zero_certificate_share_keys(capsys, gaussian):
    # `visilat primes` lists each prime as a zero certificate names it
    square = [il.point(gaussian, [[a, 0], [b, 0]]) for a in (0, 1) for b in (0, 1)]
    zero = ex.prediction_to_json(dn.predicted_density(gaussian, square, 2, 50))["zero"]
    code, out, _ = run_cli(capsys, "primes", "--field", GAUSSIAN, "--max-norm", "50")
    listed = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and zero in listed
    assert all(set(row) == {"p", "f", "e", "g", "norm"} for row in listed)


def test_run_into_closed_pipe_exits_1_quietly(tmp_path):
    # a reader that closes stdout early (`visilat run ... | head -c 10`) is not
    # a config error: exit 1 with nothing on stderr
    cfg = base_config(tmp_path, modes=["predict"])
    del cfg["out"]
    path = write_config(tmp_path, cfg)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "visilat.cli", "run", "--config", path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    proc.stdout.close()  # before the child writes its report
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1 and err == "", err
