"""Golden CLI outputs: stdout bytes and exit codes must not drift.

The 16 fixture reports in ``--format json`` are the ones the benchmark
checks, read from ``bench/golden_fixtures.json``.  The human fixture
reports and the four sweep families in both formats are stored under
``tests/golden/`` as ``<case>.<format>`` files, with their exit codes in
``tests/golden/exit_codes.json``.

After a deliberate change of output, rewrite the stored files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from casson4.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_GOLDEN = ROOT / "bench" / "golden_fixtures.json"

FIXTURE_COMMANDS = {
    "cork": "mapping-torus",
    "empty_sphere": "sphere",
    "even_torus": "torus4",
    "figure_eight": "knot",
    "floer_cork": "floer",
    "floer_odd_lint": "floer",
    "floer_product_235": "floer",
    "free_nonintegral": "mapping-torus",
    "odd_product": "torus4",
    "poincare_double_cover": "mapping-torus",
    "poincare_sphere": "sphere",
    "t4": "torus4",
    "t4_explicit": "torus4",
    "trefoil": "knot",
    "unknot_bundle": "circle-bundle",
    "whitehead_bundle": "circle-bundle",
}

SWEEPS = {
    "torus-knot-covers": "q=3,5,7,9,11",
    "free-quotients": "q=-3,-1,1,3,5",
    "surgery-chains": "count=25;seed=3",
    "three-forms": None,
}


def _argv(case: str, fmt: str) -> list[str]:
    if case in FIXTURE_COMMANDS:
        argv = [FIXTURE_COMMANDS[case], "--input", str(ROOT / "fixtures" / f"{case}.json")]
    else:
        argv = ["sweep", "--family", case]
        if SWEEPS[case] is not None:
            argv += ["--range", SWEEPS[case]]
    return argv + ["--format", fmt]


STORED = [(case, "human") for case in FIXTURE_COMMANDS] + [
    (case, fmt) for case in SWEEPS for fmt in ("json", "human")
]


def _expected(case: str, fmt: str) -> tuple[int, str]:
    if fmt == "json" and case in FIXTURE_COMMANDS:
        entry = json.loads(BENCH_GOLDEN.read_text())[case]
        return entry["code"], entry["stdout"]
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    return codes[f"{case}.{fmt}"], (GOLDEN / f"{case}.{fmt}").read_text()


@pytest.mark.parametrize(
    "case,fmt",
    [(case, "json") for case in FIXTURE_COMMANDS] + STORED,
    ids=lambda value: value,
)
def test_output_is_byte_identical(case, fmt, capsys):
    code = main(_argv(case, fmt))
    assert (code, capsys.readouterr().out) == _expected(case, fmt)


def _rewrite() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, fmt in STORED:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes[f"{case}.{fmt}"] = main(_argv(case, fmt))
        (GOLDEN / f"{case}.{fmt}").write_text(out.getvalue())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _rewrite()
