"""Seeded fuzz over the six input subcommands and ``sweep``.

Each input case takes one of the 16 fixtures, replaces one to three of
its leaves (scalars, wherever they sit) with values from a fixed pool,
and runs the CLI in process with ``--format json``.  Each sweep case
runs a family, known or not, with a ``--range`` string assembled from
keys, values and separators.  Every outcome must be one of the three
documented ones: a report (exit 0), an input error (exit 1) or a failed
congruence (exit 2).  An exception escaping ``main``, an internal error
(exit 3) or a report that is not JSON fails the case, which is named by
its seed and index for replay.
"""

import copy
import json
import random

from casson4.cli import _FAMILIES, main
from test_golden import FIXTURE_COMMANDS, ROOT

CASES = 2000
SEED = 20260

POOL = [
    # ints at and past each limit: bits, H^2 classes, torus parameters,
    # orders, the knot size limit, and unbounded fields
    -1, 0, 1, 2, 3, 14, 15, 16, 63, 64, 65, 168, 169, 2**40,
    1.5, True, False, None,
    "", "x", "id", "-id", "1/0", "3/4", "T4", "free", "branched",
    "unknot", "right_trefoil", "untwisted_double",
    [], [0], [1.5], [0, 0, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0, 1], [2, 0, 0, 0, 0, 0],
    [0, 1, 0, 1, 0, 1, 0, 1], [[1]], [[-1, 1], [0, -1]], [[1, 0], [1, 2]],
    {}, {"torus": [2, 3]}, {"torus": [3, 4]}, {"torus": [2, 15]}, {"torus": [4, 6]},
    {"seifert": [[1, 0], [1, 1]]}, {"name": "x", "seifert": [[0]]},
]


def _leaves(node, path=()):
    """Paths to the scalars of a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaves(value, path + (index,))
    else:
        yield path


def _mutated(rng, data):
    data = copy.deepcopy(data)
    for _ in range(rng.randint(1, 3)):
        paths = list(_leaves(data))
        if not paths:
            break
        *head, last = rng.choice(paths)
        parent = data
        for key in head:
            parent = parent[key]
        parent[last] = copy.deepcopy(rng.choice(POOL))
    return data


def test_mutated_fixtures_exit_0_1_or_2(tmp_path, capsys):
    rng = random.Random(SEED)
    fixtures = {
        name: json.loads((ROOT / "fixtures" / f"{name}.json").read_text())
        for name in sorted(FIXTURE_COMMANDS)
    }
    path = tmp_path / "input.json"
    codes = set()
    for case in range(CASES):
        name = rng.choice(sorted(fixtures))
        data = _mutated(rng, fixtures[name])
        path.write_text(json.dumps(data))
        label = f"case {case} (seed {SEED}): {FIXTURE_COMMANDS[name]} {json.dumps(data)}"
        try:
            code = main([FIXTURE_COMMANDS[name], "--input", str(path), "--format", "json"])
        except Exception as exc:  # any escape is the finding
            raise AssertionError(f"{label} raised {exc!r}") from exc
        out = capsys.readouterr().out
        assert code in (0, 1, 2), label
        if code in (0, 2):
            json.loads(out)
        codes.add(code)
    # the pool reaches past the schemas and into the computations
    assert codes == {0, 1, 2}


SWEEP_CASES = 3000
SWEEP_SEED = 20261

FAMILIES = sorted(_FAMILIES) + ["", "torus-knot-cover", "Three-forms", "-x"]
# every value the CLI accepts keeps a sweep cheap: q in {3, 5} for
# covers, count <= 20, steps <= 5; int() also reads 3_5, +3 and ٣
VALUES = {
    "q": ["3", "5", "+3", "٣", " 5 ", "3_5", "1", "0", "-1", "4", "", "x"],
    "r": ["5", "7", "+7", "٧", "1_3", "4", "16", "-7", "", "7.0"],
    "count": ["0", "20", "+2", "٢", "2_0", "-1", "10001", "", "2.0"],
    "steps": ["5", "0", "+5", "٥", "0_5", "-1", "65", ""],
    "seed": ["7", "-1", "3_5", "+0", "٣", "x", ""],
}
KEYS = sorted(VALUES) + [" q", "Q", "x", ""]


def _range_spec(rng, family):
    """A --range string; covers always name q first, so their default q list never runs."""
    parts = ["q=" + rng.choice(["3", "5", "3,5"])] if family == "torus-knot-covers" else []
    for _ in range(rng.randint(0, 3)):
        key = rng.choice(KEYS)
        values = [rng.choice(VALUES.get(key.strip(), ["1"])) for _ in range(rng.randint(1, 3))]
        parts.append(key + rng.choice(["=", "=", "==", "", " = "]) + ",".join(values))
    spec = rng.choice([";", ";", ";;", " ; "]).join(parts)
    return "-" + spec if rng.random() < 0.1 else spec


def test_sweep_ranges_exit_0_1_or_2(capsys):
    rng = random.Random(SWEEP_SEED)
    codes = set()
    for case in range(SWEEP_CASES):
        family = rng.choice(FAMILIES)
        args = ["sweep", "--family", family, "--format", "json"]
        if family == "torus-knot-covers" or rng.random() < 0.9:
            spec = _range_spec(rng, family)
            args += [f"--range={spec}"] if rng.random() < 0.3 else ["--range", spec]
        label = f"case {case} (seed {SWEEP_SEED}): {args}"
        try:
            code = main(args)
        except (Exception, SystemExit) as exc:  # argparse's exit is an escape too
            raise AssertionError(f"{label} raised {exc!r}") from exc
        out = capsys.readouterr().out
        assert code in (0, 1, 2), label
        if code in (0, 2):
            json.loads(out)
        codes.add(code)
    # no congruence fails on these families, and usage errors exit 1
    assert codes == {0, 1}
