"""The large instances of the exactness identities, with their time and
memory bounds, and the CLI strings that pin the density formula's output.

A gate with a time limit or a memory bound runs in a fresh interpreter,
killed at its limit, so that both are its own. The child reads its peak
resident size from VmHWM in /proc/self/status: ru_maxrss would report the
peak of the parent that forked it, here the whole test session's.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import visilat
from visilat import cli

GAUSSIAN = '{"kind":"quadratic","d":-1}'
CUBIC = '{"kind":"monogenic","minpoly":[-1,-1,0,1]}'

PRELUDE = """\
import json
from visilat import counting as ct, ideals as il, numfield as nf
"""
REPORT = """
with open("/proc/self/status") as fh:
    mib = [int(line.split()[1]) / 1024 for line in fh if line.startswith("VmHWM:")][0]
print(json.dumps({"got": got, "mib": mib}))
"""


def run_child(args, timeout):
    """``python -W ignore *args`` with src on its path, killed after
    ``timeout`` seconds (startup and imports included)."""
    src = os.path.dirname(os.path.dirname(visilat.__file__))
    proc = subprocess.run([sys.executable, "-W", "ignore", *args], capture_output=True,
                          text=True, timeout=timeout, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    return proc.stdout


# name: (child code that sets `got`, its time limit in s, `got` as expected,
# bound on the child's peak in MiB or None). A gate with no time limit of
# its own is given 60 s, against a hang.
CHILD_GATES = {
    "sieve_Qi_L60_within_100MiB": ("""
        f = nf.make_field('quadratic', d=-1)
        r = ct.count_visible_sieve(f, [il.point(f, [[0, 0], [0, 0]])], 2, ct.cube_region(f, 60))
        got = [r.visible_count, r.total_tuples]
        """, 60, [142170712, 121 ** 4], 100),
    "sieve_Qsqrt-5_L100_within_10s_75MiB": ("""
        f = nf.make_field('quadratic', d=-5)
        S = [il.point(f, [[0, 0], [0, 0]]), il.point(f, [[1, 0], [0, 1]])]
        got = ct.count_visible_sieve(f, S, 2, ct.cube_region(f, 100)).visible_count
        """, 10, 406325036, 75),
    # 390 625 tuples through the visibility kernel
    "direct_eq_sieve_Qsqrt-7_L12_within_10s": ("""
        f = nf.make_field('quadratic', d=-7)
        S = [il.point(f, p) for p in ([[0, 0], [0, 0]], [[1, 0], [0, 1]], [[2, -1], [1, 1]])]
        r = ct.cube_region(f, 12)
        d, s = ct.count_visible_direct(f, S, 2, r), ct.count_visible_sieve(f, S, 2, r)
        got = [d.visible_count, s.visible_count, d.total_tuples]
        """, 10, [18504, 18504, 390625], None),
    # 2 825 761 tuples, past every benchmark workload
    "direct_eq_sieve_Qi_L20_within_10s_48MiB": ("""
        f = nf.make_field('quadratic', d=-1)
        S = [il.point(f, [[0, 0], [0, 0]])]
        r = ct.cube_region(f, 20)
        d, s = ct.count_visible_direct(f, S, 2, r), ct.count_visible_sieve(f, S, 2, r)
        got = [d.visible_count, s.visible_count, d.total_tuples]
        """, 10, [1881688, 1881688, 2825761], 48),
    # S = {((x,0),(x,0))} far from the cube: the sieve splits only the primes
    # dividing a difference norm, below B = 4 008 008 and ~10^12
    "far_S_sieve_eq_direct_within_10s_100MiB": ("""
        f = nf.make_field('quadratic', d=-1)
        r = ct.cube_region(f, 2)
        got = []
        for x in (2000, 10 ** 6):
            S = [il.point(f, [[x, 0], [x, 0]])]
            s, d = ct.count_visible_sieve(f, S, 2, r), ct.count_visible_direct(f, S, 2, r)
            got.append([s.visible_count, d.visible_count, s.prime_norm_bound])
        """, 10, [[394, 394, 4008008], [394, 394, 1000004000008]], 100),
    "sieve_cubic_L14_within_5s": ("""
        f = nf.make_field('monogenic', minpoly=[-1, -1, 0, 1])
        S = [il.point(f, p) for p in ([[0, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0]])]
        r = ct.count_visible_sieve(f, S, 2, ct.cube_region(f, 14))
        got = [r.visible_count, r.total_tuples, r.prime_norm_bound]
        """, 5, [479581467, 594823321, 21383], None),
    # 2 803 221 points in 19 881 runs, far past a row scan's reach
    "lemma_check_cubic_L70_within_10s_64MiB": ("""
        from visilat import experiment as ex
        f = nf.make_field('monogenic', minpoly=[-1, -1, 0, 1])
        rows = [c.count for P, c in ex.lemma_checks(f, ct.cube_region(f, 70), 1000)]
        got = [len(rows), sum(rows)]
        """, 10, [171, 4105999], 64),
}


@pytest.mark.parametrize("name", CHILD_GATES)
def test_child_gate(name):
    body, timeout, want, max_mib = CHILD_GATES[name]
    out = json.loads(run_child(["-c", PRELUDE + textwrap.dedent(body) + REPORT], timeout))
    assert out["got"] == want
    if max_mib is not None:
        assert out["mib"] <= max_mib, out["mib"]


def test_cubic_predict_within_2s():
    # x^3 - x - 1 through the splitting engine, as the console script runs it
    out = run_child(["-m", "visilat.cli", "predict", "--field", CUBIC, "--m", "2", "--s",
                     "[[[0,0,0],[0,0,0]],[[1,0,0],[0,1,0]]]", "--X", "100000"], 2)
    assert out == ('{"X": 100000, "hi": "0.809574509099539181519221548742", '
                   '"lo": "0.809477360158447236817439242155", "zero": null}\n')


@pytest.mark.parametrize("argv, want", [
    # the residue encoder's consumers outside the sieve: the CRT oracle on
    # Q(sqrt-7) at t = 3, and predict on Q(i), whose S has difference-norm
    # product 16, so that s(P) runs at p = 2
    (["oracle", "--field", '{"kind":"quadratic","d":-7}', "--m", "2", "--s",
      "[[[0,0],[0,0]],[[1,0],[0,1]],[[2,1],[1,0]]]", "--window-t", "3"],
     '{"den": "33750", "num": "4043"}'),
    (["predict", "--field", GAUSSIAN, "--m", "2", "--s",
      "[[[0,0],[0,0]],[[2,0],[0,0]],[[1,1],[1,-1]]]", "--X", "1000"],
     '{"X": 1000, "hi": "0.514000141535020604284731291713", '
     '"lo": "0.507832139836600357033314516212", "zero": null}'),
    (["predict", "--field", GAUSSIAN, "--m", "2", "--s", "[[[0,0],[0,0]]]", "--X", "100000"],
     '{"X": 100000, "hi": "0.663701336255912516627539016336", '
     '"lo": "0.663674788202462280126873914774", "zero": null}')],
    ids=["oracle-Qsqrt-7-t3", "predict-Qi-three-points", "predict-Qi-origin"])
def test_cli_output_strings(capsys, argv, want):
    code = cli.main(argv)
    out = capsys.readouterr()
    assert code == 0 and out.out == want + "\n" and out.err == ""


@pytest.mark.filterwarnings("ignore:.*class-number-one")
def test_lemma_check_cubic_primes_of_every_degree(capsys):
    code = cli.main(["lemma-check", "--field", CUBIC, "--region", "cube:L=10",
                     "--max-prime-norm", "30"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    # residue degree f = len(g) - 1: primes with f = 1, 2 and 3
    assert {len(r["g"]) - 1 for r in rows} == {1, 2, 3}
