import json
from fractions import Fraction

import pytest

from visilat import cli
from visilat import experiment as ex
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


def test_primes_subcommand(capsys):
    code, out, _ = run_cli(capsys, "primes", "--field", GAUSSIAN,
                           "--max-norm", "5")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0] == {"norm": 2, "p": 2, "f": 1, "e": 2, "g": [1, 1]}
    assert [r["norm"] for r in rows] == [2, 5, 5]


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


def test_bad_region_syntax(capsys):
    code, _, err = run_cli(capsys, "count", "--field", RATIONAL, "--m", "2",
                           "--s", "[[[0],[0]]]", "--region", "pyramid:Z=3")
    assert code == 2
    assert "invalid configuration" in err


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
    cfg = base_config(tmp_path)
    path = write_config(tmp_path, cfg)
    csv_path = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "run", "--config", path, "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "region,mode,total,visible,density,lo,hi,discrepancy"
    report = json.loads((tmp_path / "report.json").read_text())
    # densities round-trip identically between JSON and CSV
    assert lines[1].split(",")[4] == report["counts"][0]["density"]


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
