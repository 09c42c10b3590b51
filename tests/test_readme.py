"""The README's library example runs as written and prints what it says,
and its comparison table is the golden sweep."""

import contextlib
import io
import json
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
PAPER_SWEEP = Path(__file__).resolve().parent / "golden" / "paper_sweep_s30.json"


def library_snippet() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_snippet(), str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["5", "9", "(10, 11) 9"]


def test_comparison_table_is_the_golden_sweep():
    """Each row of the sweep table under *Reproducing the paper's
    comparison* reads its cell of the golden file: followers of `support`
    and of `up_edge`, then candidates evaluated by the three greedy solvers."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Reproducing the paper's comparison\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().replace(",", "") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if re.match(r"\| \d", line)]
    got = {(int(row[0]), int(row[1])): [int(x) for x in row[2:]] for row in rows if len(row) == 7}
    cell = {(c["k"], c["b"], c["algorithm"]): c for c in json.loads(PAPER_SWEEP.read_text())}
    want = {(k, b): [cell[k, b, a]["followers_total"] for a in ("support", "up_edge")]
            + [cell[k, b, a]["candidates_evaluated"] for a in ("baseline", "gp_edge", "up_edge")]
            for k, b, _ in cell}
    assert got == want
