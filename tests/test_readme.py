from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The fenced Python block under "## Library quick start" in README.md."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(capsys):
    exec(compile(quick_start(), str(README), "exec"), {})
    bracket, counts = capsys.readouterr().out.splitlines()
    lo, hi = map(float, bracket.split())
    assert lo <= hi and abs(lo - 0.6637) < 1e-3 and abs(hi - 0.6637) < 1e-3
    visible, total = map(int, counts.split())
    assert total == (2 * 60 + 1) ** 4 and 0 < visible < total
