import copy
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from casson4 import ThreeTorusForm, admissible, product_ring
from casson4.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args + ["--format", "json"], capsys)
    return code, (json.loads(out) if out.strip() else None), err


def test_knot_trefoil(capsys):
    code, report, _ = run_json(
        ["knot", "--input", str(FIXTURES / "trefoil.json")], capsys
    )
    assert code == 0
    inv = report["invariants"]
    assert inv["alexander"] == "t - 1 + t^-1"
    assert inv["delta_second_derivative"] == 2
    assert inv["spectrum"] == [0, -2]
    assert inv["arf"] == 1
    assert report["congruences"]["murasugi_mod8"] == 1
    assert report["input_digest"].startswith("sha256:")


def test_sphere_poincare(capsys):
    code, report, _ = run_json(
        ["sphere", "--input", str(FIXTURES / "poincare_sphere.json")], capsys
    )
    assert code == 0
    assert report["invariants"]["casson"] == -1
    assert report["invariants"]["rohlin"] == 1
    assert report["congruences"]["casson_equals_rohlin_mod2"] == 1


def test_sphere_empty(capsys):
    code, report, _ = run_json(
        ["sphere", "--input", str(FIXTURES / "empty_sphere.json")], capsys
    )
    assert code == 0
    assert report["invariants"]["casson"] == 0
    assert report["invariants"]["rohlin"] == 0


def test_mapping_torus_cork(capsys):
    code, report, _ = run_json(
        ["mapping-torus", "--input", str(FIXTURES / "cork.json")], capsys
    )
    assert code == 0
    inv = report["invariants"]
    assert inv["lambda_fo"] == 2
    assert inv["lefschetz"] == 4
    assert inv["pattern"] == "minus-identity"
    assert inv["sign_pattern"] == {"1": -1, "3": -1, "5": -1, "7": -1}
    assert report["congruences"]["lambda_fo_equals_rho_mod2"] == 1


def test_mapping_torus_free_nonintegral_exits_1(capsys):
    code, report, _ = run_json(
        ["mapping-torus", "--input", str(FIXTURES / "free_nonintegral.json")], capsys
    )
    assert code == 1
    assert report["invariants"]["lambda_fo"] == "3/4"
    assert report["congruences"]["integral"] == 0


def test_floer_cork(capsys):
    code, report, _ = run_json(
        ["floer", "--input", str(FIXTURES / "floer_cork.json")], capsys
    )
    assert code == 0
    assert report["invariants"]["lefschetz"] == 4
    assert report["invariants"]["lambda_fo"] == 2
    assert report["congruences"]["evenness"] == 1


def test_floer_request_sums_its_traces_once(monkeypatch, capsys):
    # lambda_fo_from_lefschetz judges the number cmd_floer computed
    from helpers import count_calls

    calls = count_calls(monkeypatch, "lefschetz")
    code, report, _ = run_json(["floer", "--input", str(FIXTURES / "floer_cork.json")], capsys)
    assert (code, report["invariants"]["even"], len(calls)) == (0, 1, 1)


def test_floer_odd_lint_is_not_an_error(capsys):
    code, report, _ = run_json(
        ["floer", "--input", str(FIXTURES / "floer_odd_lint.json")], capsys
    )
    assert code == 0  # declared non-geometric, so no congruence is enforced
    assert report["invariants"]["even"] == 0
    assert "evenness" not in report["congruences"]


def test_torus4_presets(capsys):
    code, report, _ = run_json(
        ["torus4", "--input", str(FIXTURES / "t4.json")], capsys
    )
    assert code == 0
    assert report["invariants"]["det4"] == 1
    assert report["invariants"]["four_orbit_count"] == 1
    assert report["congruences"]["quarter_count_equals_det4_mod2"] == 1

    code, report, _ = run_json(
        ["torus4", "--input", str(FIXTURES / "even_torus.json")], capsys
    )
    assert code == 0
    assert report["invariants"]["det4"] == 0
    assert report["congruences"]["det4_equals_det3"] == 1

    code, report, _ = run_json(
        ["torus4", "--input", str(FIXTURES / "t4_explicit.json")], capsys
    )
    assert code == 0
    assert report["invariants"]["det4"] == 1


@pytest.mark.parametrize(
    "path, value, message",
    [
        (["eval_top"], 0, "declared top value 0 does not match the pairing evaluation 1"),
        (["cup2", 0, 1, 4], 1, "cup2 table must be symmetric"),
        (["cup2", 3, 3, 0], 1, "cup2[3][3] must vanish (odd square)"),
        (["pairing", 0, 1], 1, "H^2 pairing must be symmetric"),
        (["pairing", 0, 0], 1, "top form must vanish on repeated arguments"),
    ],
)
def test_torus4_broken_explicit_ring_exits_1(path, value, message, capsys, tmp_path):
    data = json.loads((FIXTURES / "t4_explicit.json").read_text())
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    code, out, err = run_cli(["torus4", "--input", str(broken)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_circle_bundle(capsys):
    for fixture in ("whitehead_bundle.json", "unknot_bundle.json"):
        code, report, _ = run_json(
            ["circle-bundle", "--input", str(FIXTURES / fixture)], capsys
        )
        assert code == 0
        assert report["invariants"]["rho"] == 0
        assert report["invariants"]["furuta_ohta"] == 0
        assert report["congruences"]["lambda_fo_equals_rho_mod2"] == 1


def test_reports_are_deterministic(capsys):
    args = ["knot", "--input", str(FIXTURES / "trefoil.json"), "--format", "json"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_round_trips_losslessly(capsys):
    code, out, _ = run_cli(
        ["mapping-torus", "--input", str(FIXTURES / "cork.json"), "--format", "json"],
        capsys,
    )
    parsed = json.loads(out)
    assert json.loads(json.dumps(parsed)) == parsed


def test_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(["knot", "--input", str(bad)], capsys)
    assert code == 1
    assert "not valid JSON" in err
    # near the recursion limit the parser, or the schema check's repr of the
    # value, runs out of stack first: either way one error line, no traceback
    too_deep = f"error: {bad} nests its JSON too deeply to read\n"
    errors = []
    for depth in [*range(850, 1001), 5_000]:
        seifert = "[" * depth + "]" * depth
        bad.write_text(f'{{"schema": 1, "name": "x", "seifert": {seifert}}}')
        code, out, err = run_cli(["knot", "--input", str(bad)], capsys)
        assert (code, out, err.count("\n")) == (1, "", 1), depth
        assert err.startswith(f"error: {bad}"), depth
        errors.append(err)
    assert errors[-1] == too_deep
    bad.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(["knot", "--input", str(bad)], capsys)
    assert (code, err) == (1, f"error: {bad} nests its JSON too deeply to read\n")


def test_schema_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 1, "name": "x"}))  # missing seifert
    code, out, err = run_cli(["knot", "--input", str(bad)], capsys)
    assert code == 1
    assert "error" in err


def test_invalid_seifert_matrix_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 1, "name": "x", "seifert": [[1, 2], [0, 1]]}))
    code, out, err = run_cli(["knot", "--input", str(bad)], capsys)
    assert code == 1


def test_sweep_families(capsys):
    code, payload, _ = run_json(
        ["sweep", "--family", "torus-knot-covers", "--range", "q=3,5"], capsys
    )
    assert code == 0
    assert payload["summary"]["congruence_failures"] == 0
    assert len(payload["instances"]) == 2
    assert payload["instances"][0]["lambda_fo"] == -1

    code, payload, _ = run_json(
        ["sweep", "--family", "three-forms"], capsys
    )
    assert code == 0
    assert payload["summary"]["congruence_failures"] == 0
    assert {inst["admissible_w"] for inst in payload["instances"]} == {28, 35}

    code, payload, _ = run_json(
        ["sweep", "--family", "surgery-chains", "--range", "count=25;seed=3"], capsys
    )
    assert code == 0
    assert payload["summary"]["instances"] == 25
    assert payload["summary"]["congruence_failures"] == 0

    code, payload, _ = run_json(
        ["sweep", "--family", "free-quotients", "--range", "q=1,3"], capsys
    )
    assert code == 0
    assert payload["summary"]["congruence_failures"] == 0
    assert all(inst["cover_relation"] == 1 for inst in payload["instances"])


def test_free_quotient_sweep_evaluates_each_invariant_once(monkeypatch, capsys):
    # one free invariant per row, one branched cover's per knot: the
    # covering relation and rho take them and evaluate neither again
    from helpers import count_calls
    from test_golden import SWEEPS

    free = count_calls(monkeypatch, "equivariant_casson_free")
    branched = count_calls(monkeypatch, "equivariant_casson_branched")
    mubar = count_calls(monkeypatch, "mubar_double_branched")
    code, payload, _ = run_json(
        ["sweep", "--family", "free-quotients", "--range", SWEEPS["free-quotients"]], capsys
    )
    assert code == 0
    assert payload["summary"]["instances"] == 15
    assert all(row["cover_relation"] == 1 for row in payload["instances"])
    assert (len(free), len(branched), len(mubar)) == (15, 3, 0)


def test_sweep_empty_family_range(capsys):
    code, payload, _ = run_json(
        ["sweep", "--family", "surgery-chains", "--range", "count=0"], capsys
    )
    assert code == 0
    assert payload["instances"] == []
    assert payload["summary"]["instances"] == 0


@pytest.mark.parametrize(
    "family,spec",
    [
        ("torus-knot-covers", "q=x"),
        ("torus-knot-covers", "q=3;r=x"),
        ("torus-knot-covers", "q=3;r="),
        ("surgery-chains", "count=x"),
        ("surgery-chains", "steps=x"),
        ("free-quotients", "q=x"),
        ("free-quotients", "q="),
        ("free-quotients", "q"),
        ("free-quotients", "q=3_5"),
        ("free-quotients", "q=\u0663"),
        ("free-quotients", "q= +3 "),
        ("free-quotients", "q=3;q=5"),
        ("torus-knot-covers", "q=3,,5"),
        ("free-quotients", "q=3,"),
        ("surgery-chains", "count=,2"),
        ("surgery-chains", "count=2;seed=1; count =3"),
    ],
)
def test_sweep_range_takes_integer_lists_only(family, spec, capsys):
    code, out, err = run_cli(["sweep", "--family", family, "--range", spec], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_sweep_range_refuses_keys_the_family_does_not_read(capsys):
    code, out, err = run_cli(
        ["sweep", "--family", "surgery-chains", "--range", "cout=2"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "cout" in err and "count, steps, seed" in err

    code, out, err = run_cli(
        ["sweep", "--family", "three-forms", "--range", "q=3"], capsys
    )
    assert code == 1
    assert "none" in err


def test_sweep_unknown_family_exits_1(capsys):
    code, out, err = run_cli(["sweep", "--family", "nonsense"], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "family,spec,message",
    [
        ("surgery-chains", "count=-3", "count: at most 1 value(s) in 0..10000, got [-3]"),
        ("surgery-chains", "count=1,2", "count: at most 1 value(s) in 0..10000, got [1, 2]"),
        ("surgery-chains", "seed=5,6", "seed: at most 1 value(s), got [5, 6]"),
        ("surgery-chains", "steps=-1", "steps: at most 1 value(s) in 0..64, got [-1]"),
        ("torus-knot-covers", "q=15", "q: at most 16 value(s) in 3..13, got [15]"),
        ("torus-knot-covers", "q=3;r=17", "r: at most 16 value(s) in 3..15, got [17]"),
        ("torus-knot-covers", "q=" + ",".join(["3"] * 17), "q: at most 16 value(s) in 3..13, got "),
        ("free-quotients", "q=" + ",".join(["1"] * 17), "q: at most 16 value(s), got "),
    ],
)
def test_sweep_range_limits_exit_1(family, spec, message, capsys):
    code, out, err = run_cli(["sweep", "--family", family, "--range", spec], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: range key {message}") and err.count("\n") == 1


def test_free_quotient_sweep_refuses_even_q(capsys):
    # FreeQuotientData refuses the framing; the sweep does not test it first
    code, out, err = run_cli(["sweep", "--family", "free-quotients", "--range", "q=4"], capsys)
    assert (code, out, err) == (1, "", "error: gcd(n = 2, q = 4) != 1\n")


def test_unknown_preset_message_has_no_stray_quotes(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text(json.dumps({"schema": 1, "name": "x", "steps": [{"knot": "nope", "q": -1}]}))
    code, out, err = run_cli(["sphere", "--input", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: unknown preset knot 'nope'; available: ['figure_eight', "
        "'left_trefoil', 'right_trefoil', 'unknot', 'untwisted_double']\n"
    )


def test_congruence_failure_exits_2(monkeypatch, capsys):
    # no valid input can break the congruences (that is the point), so
    # exercise the regression-alarm path with a stubbed family
    from casson4 import cli

    monkeypatch.setitem(
        cli._FAMILIES,
        "stub",
        (lambda params: [{"instance": "broken", "congruent": 0}], ()),
    )
    code, payload, _ = run_json(["sweep", "--family", "stub"], capsys)
    assert code == 2
    assert payload["summary"]["congruence_failures"] == 1


def test_report_exit_code_logic():
    from casson4.cli import InvariantReport

    ok = InvariantReport("x", "sha256:0", {}, congruences={"a": 1})
    assert ok.exit_code() == 0
    bad = InvariantReport("x", "sha256:0", {}, congruences={"a": 1, "b": 0})
    assert bad.exit_code() == 2
    refused = InvariantReport("x", "sha256:0", {}, congruences={"integral": 0})
    assert refused.exit_code() == 1


def test_build_report_makes_bits_name_digest_and_exit_code(monkeypatch):
    from casson4 import cli

    data = json.loads((FIXTURES / "free_nonintegral.json").read_text())
    report, code = cli.build_report("mapping-torus", data)
    assert code == 1
    assert report.name == data["name"]
    assert report.input_digest == cli.input_digest(data)
    assert report.congruences == {"integral": 0}

    monkeypatch.setitem(
        cli._COMMANDS, "knot", ("knot", lambda data: ({"x": 1}, {"c": False}, []))
    )
    report, code = cli.build_report("knot", {"schema": 1})
    assert code == 2
    assert report.name is None
    assert report.congruences == {"c": 0}


def test_subcommand_congruence_failure_exits_2(monkeypatch, capsys):
    from casson4 import cli

    monkeypatch.setitem(
        cli._COMMANDS, "sphere", ("sphere", lambda data: ({}, {"broken": False}, []))
    )
    code, out, _ = run_cli(
        ["sphere", "--input", str(FIXTURES / "empty_sphere.json")], capsys
    )
    assert code == 2
    assert "broken: FAIL" in out


def test_torus4_reports_unsupported_w_without_parity_check(capsys, tmp_path):
    even = product_ring(ThreeTorusForm(0))
    not_admissible = next(w for w in range(1, 64) if not admissible(even, w))
    cases = [
        ({"preset": "T4", "w": 0b100001},
         {"admissible": 1, "bundle_exists": 0, "four_orbit_count": 0}),
        ({"three_form": 0, "w": not_admissible}, {"admissible": 0}),
    ]
    for ring, bits in cases:
        path = tmp_path / "torus4.json"
        path.write_text(json.dumps({"schema": 1, "name": "undefined count", **ring}))
        code, report, _ = run_json(["torus4", "--input", str(path)], capsys)
        assert code == 0
        invariants = report["invariants"]
        assert {"admissible", "bundle_exists"} <= set(invariants)
        assert bits.items() <= invariants.items()
        assert "donaldson_mod2" not in invariants
        assert "quarter_count_equals_det4_mod2" not in report["congruences"]
        assert any("count undefined" in note for note in report["certificates"])


@pytest.mark.parametrize(
    "data",
    [
        {"type": "branched", "n": 2, "branch_knot": {"torus": [3, 5]}},  # lambda = -1
        {"type": "free", "n": 2, "q": 1, "branch_knot": {"torus": [3, 5]}},  # lambda = 7
    ],
    ids=["branched", "free"],
)
def test_mapping_torus_rho_disagreeing_with_lambda_exits_2(data, capsys, tmp_path, monkeypatch):
    # the congruence judges the lambda the report prints: one evaluation per request
    from casson4 import equivariant

    name = f"equivariant_casson_{data['type']}"
    evaluate, calls = getattr(equivariant, name), []
    monkeypatch.setattr(equivariant, name, lambda d: calls.append(d) or evaluate(d))
    path = tmp_path / "mapping_torus.json"
    path.write_text(json.dumps({"schema": 1, "quotient_casson": 0, "rho_cover": 0, **data}))
    code, report, _ = run_json(["mapping-torus", "--input", str(path)], capsys)
    assert len(calls) == 1
    assert code == 2
    assert report["invariants"]["lambda_fo"] % 2 == 1
    assert report["congruences"] == {"integral": 1, "lambda_fo_equals_rho_mod2": 0}


def test_human_format_mentions_failures(monkeypatch, capsys):
    from casson4 import cli

    monkeypatch.setitem(
        cli._FAMILIES,
        "stub",
        (lambda params: [{"instance": "broken", "congruent": 0}], ()),
    )
    code, out, _ = run_cli(["sweep", "--family", "stub"], capsys)
    assert code == 2
    assert "CONGRUENCE FAIL" in out
    assert "0/1 congruences hold" in out


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "casson4.cli", "sphere", "--input",
         str(FIXTURES / "poincare_sphere.json"), "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["invariants"]["casson"] == -1


def test_floer_zero_denominator_is_refused_without_traceback(tmp_path):
    bad = tmp_path / "zero_denominator.json"
    bad.write_text(json.dumps({
        "schema": 1,
        "ranks": [0, 1, 0, 0, 0, 1, 0, 0],
        "maps": [[["1/0"]], "id", "id", "id", "id", "id", "id", "id"],
    }))
    result = subprocess.run(
        [sys.executable, "-m", "casson4.cli", "floer", "--input", str(bad)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize(
    "schema_name,data",
    [
        ("knot", {"schema": 1, "name": "x"}),
        ("knot", {"schema": 1, "name": "x", "seifert": [[1, "a"], [0, 1]]}),
        ("knot", {"schema": 2, "name": "x", "seifert": [], "extra": 0}),
        ("knot", []),
        ("sphere", {"schema": 1, "steps": [{"knot": "unknot"}]}),
        ("mapping_torus", {"schema": 1, "type": "free", "n": 0, "quotient_casson": 0}),
        ("mapping_torus", {"schema": 1, "type": "branched", "n": 2, "quotient_casson": 0}),
        ("floer", {"schema": 1, "ranks": [1, 2]}),
        ("floer", {"schema": 1, "ranks": [0] * 8, "maps": [[["1/0"]]] * 8}),
        ("torus4", {"schema": 1, "w": "x"}),
        ("circle_bundle", {"schema": 1, "knot": "unknot", "euler": "one"}),
        (
            "mapping_torus",
            {"schema": 1, "type": "branched", "n": 2, "quotient_casson": 0,
             "branch_knot": "right_trefoil", "spectrum": [0, 16]},
        ),
        (
            "mapping_torus",
            {"schema": 1, "type": "free", "n": 2, "q": 1, "quotient_casson": 0,
             "branch_knot": "right_trefoil", "spectrum": [0, 16]},
        ),
        (
            "mapping_torus",
            {"schema": 1, "type": "branched", "n": 2, "q": 1, "quotient_casson": 0,
             "branch_knot": "right_trefoil"},
        ),
    ],
)
def test_schema_errors_match_jsonschema_validate(schema_name, data, tmp_path):
    import jsonschema

    from casson4 import cli
    from casson4.errors import SchemaError

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(data, cli._validator(schema_name).schema)
    with pytest.raises(SchemaError) as got:
        cli.load_input(str(path), schema_name)
    assert str(got.value) == f"{path}: {expected.value.message}"


SHIPPED_SCHEMAS = sorted(
    f.name for f in resources.files("casson4.schemas").iterdir() if f.name.endswith(".json")
)


def shipped_schema(filename: str) -> dict:
    """A shipped schema as cli._validator uses it, with defs.json inlined; defs.json as it is."""
    from casson4 import cli

    if filename == "defs.json":
        return json.loads(resources.files("casson4.schemas").joinpath(filename).read_text())
    return cli._validator(filename.removesuffix(".json")).schema


def check_metaschema(doc: dict) -> None:
    import jsonschema

    cls = jsonschema.validators.validator_for(doc)
    assert cls is jsonschema.Draft7Validator
    cls.check_schema(doc)


@pytest.mark.parametrize("filename", SHIPPED_SCHEMAS)
def test_shipped_schema_passes_its_metaschema(filename):
    check_metaschema(shipped_schema(filename))


def test_broken_schema_fails_the_metaschema_check():
    import jsonschema

    for filename in SHIPPED_SCHEMAS:
        doc = copy.deepcopy(shipped_schema(filename))
        next(iter(doc["definitions"].values()))["type"] = "integr"
        with pytest.raises(jsonschema.SchemaError):
            check_metaschema(doc)


def test_internal_error_exits_3_in_one_line(monkeypatch, capsys):
    from casson4 import cli
    from casson4.errors import Casson4Error, InternalError

    assert not issubclass(InternalError, Casson4Error)

    def broken(data):
        raise InternalError("pivot vanished")

    monkeypatch.setitem(cli._COMMANDS, "knot", ("knot", broken))
    code, out, err = run_cli(
        ["knot", "--input", str(FIXTURES / "trefoil.json")], capsys
    )
    assert code == 3
    assert out == ""
    assert err == "internal error: pivot vanished\n"


def test_alexander_defect_exits_3_in_one_line(monkeypatch, capsys):
    from casson4 import seifert
    from helpers import skew_alexander_charpoly

    skew_alexander_charpoly(monkeypatch)
    seifert._alexander_cached.cache_clear()
    try:
        code, out, err = run_cli(
            ["knot", "--input", str(FIXTURES / "trefoil.json")], capsys
        )
    finally:
        seifert._alexander_cached.cache_clear()
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_singular_class_matrix_exits_3_in_one_line(monkeypatch, tmp_path, capsys):
    # with omega = 1 both classes of order 5 give the row (1, 2), so the
    # solve for the coordinates meets a singular matrix
    from casson4 import seifert
    from helpers import clear_caches

    data = json.loads((FIXTURES / "trefoil.json").read_text())
    data["spectrum_order"] = 5
    path = tmp_path / "trefoil5.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(seifert, "_root_of_unity", lambda p, k: 1)
    clear_caches()
    try:
        code, out, err = run_cli(["knot", "--input", str(path)], capsys)
    finally:
        clear_caches()
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "column 1 has no pivot" in err


def _bound_defect_exits_3(monkeypatch, tmp_path, capsys, module, bound, order):
    from helpers import clear_caches

    data = json.loads((FIXTURES / "trefoil.json").read_text())
    data["spectrum_order"] = order
    path = tmp_path / f"trefoil{order}.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(f"casson4.{module}.{bound}", lambda entries: 1)
    clear_caches()
    try:
        code, out, err = run_cli(["knot", "--input", str(path)], capsys)
    finally:
        clear_caches()
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "exceeds the bound" in err


def test_minor_sum_defect_exits_3_in_one_line(monkeypatch, tmp_path, capsys):
    # orders k >= 3 size their prime by _minor_sum_bound: order 3 trips the check
    _bound_defect_exits_3(monkeypatch, tmp_path, capsys, "seifert", "_minor_sum_bound", 6)


def _order_two_defect_exits_3(monkeypatch, capsys, change, message):
    # the order-2 signature of the trefoil fixture eliminates S + S^T after
    # change(M), and its last pivot minor disagrees with -Delta(-1) = 3
    from helpers import clear_caches, skew_symmetric_inertia

    skew_symmetric_inertia(monkeypatch, change)
    clear_caches()
    try:
        code, out, err = run_cli(["knot", "--input", str(FIXTURES / "trefoil.json")], capsys)
    finally:
        clear_caches()
    assert code == 3
    assert out == ""
    assert err == f"internal error: {message}\n"


def test_order_two_zero_diagonal_defect_exits_3_in_one_line(monkeypatch, capsys):
    # [[0, 1], [1, 0]] takes one 2 x 2 step, to D_2 = -1
    def zero_diagonal(M):
        for i, row in enumerate(M):
            row[i] = 0

    _order_two_defect_exits_3(monkeypatch, capsys, zero_diagonal, "D_2 came out -1, not det M = 3")


def test_order_two_entry_defect_exits_3_in_one_line(monkeypatch, capsys):
    # [[-1, 1], [1, -2]] takes two 1 x 1 steps, to D_2 = 1
    def add_one(M):
        M[0][0] += 1

    _order_two_defect_exits_3(monkeypatch, capsys, add_one, "D_2 came out 1, not det M = 3")


def test_wrong_delta_at_minus_one_exits_3_in_one_line(monkeypatch, capsys):
    # order 2 checks det(S + S^T) = 3 against -Delta(-1): a Delta with
    # Delta(1) = 1 and the trefoil's Arf invariant, but Delta(-1) = -11, not -3
    from casson4 import LaurentPolynomial, seifert
    from helpers import clear_caches

    wrong = LaurentPolynomial({-1: 3, 0: -5, 1: 3})
    monkeypatch.setattr(seifert, "_alexander_cached", lambda entries: wrong)
    clear_caches()
    try:
        code, out, err = run_cli(["knot", "--input", str(FIXTURES / "trefoil.json")], capsys)
    finally:
        clear_caches()
    assert code == 3
    assert out == ""
    assert err == "internal error: D_2 came out 3, not det M = 11\n"


@pytest.mark.parametrize(
    "name,value,message",
    [
        (
            "arf_invariant",
            1,
            "arf = 1 with trivial Alexander polynomial contradicts the "
            "mod-8 determinant congruence",
        ),
        ("second_derivative_at_one", 2, "Delta''(1) != 0 for the constant polynomial 1"),
    ],
    ids=["arf", "second_derivative"],
)
def test_circle_bundle_defect_exits_3_in_one_line(name, value, message, monkeypatch, capsys):
    # trivial Alexander polynomial forces both values to 0; a nonzero one is a defect
    from casson4 import bundles

    monkeypatch.setattr(bundles, name, lambda _: value)
    path = FIXTURES / "whitehead_bundle.json"
    code, out, err = run_cli(["circle-bundle", "--input", str(path)], capsys)
    assert (code, out, err) == (3, "", f"internal error: {message}\n")


def test_mapping_torus_order_above_limit_exits_1(tmp_path, capsys):
    data = json.loads((FIXTURES / "cork.json").read_text())
    data["n"] = 65
    path = tmp_path / "n65.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["mapping-torus", "--input", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "64" in err


@pytest.mark.parametrize(
    "command,data,message",
    [
        ("sphere", {"steps": [{"knot": {"torus": [2, 171]}, "q": 1}]}, "maximum of 15"),
        ("sphere", {"steps": [{"knot": {"torus": [14, 15]}, "q": 1}]},
         "torus(14,15) has more than 168 Seifert rows"),
        ("circle_bundle", {"knot": {"torus": [15, 14]}, "euler": 1}, "more than 168 Seifert rows"),
        ("sphere", {"steps": [{"knot": [[0] * 170] * 170, "q": 1}]}, "more than 168 items"),
        ("knot", {"name": "zero", "seifert": [[0] * 170] * 170}, "more than 168 items"),
        ("knot", {"name": "zero", "seifert": [[0] * 2] * 170}, "$.seifert has more than 168 items"),
        ("sphere", {"steps": [{"knot": "left_trefoil", "q": 1}] * 65}, "more than 64 items"),
    ],
    ids=["torus-entry", "torus-rows", "bundle-torus-rows", "inline-matrix", "knot-matrix", "knot-rows",
         "sphere-steps"],
)
def test_knots_above_the_size_limit_exit_1(command, data, message, tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"schema": 1, **data}))
    code, out, err = run_cli([command.replace("_", "-"), "--input", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def _nested(depth: int) -> list:
    value = [1]
    for _ in range(depth - 1):
        value = [value]
    return value


@pytest.mark.parametrize(
    "command,data,reason",
    [
        ("mapping-torus", {"torus": (7, 9)}, "$ is valid under each of"),
        ("mapping-torus", {"torus": (13, 15)}, "$ is valid under each of"),
        ("knot", {"name": "deep", "seifert": _nested(900)}, "$.seifert[0][0] is not of type 'integer'"),
        (
            "mapping-torus",
            {"type": "branched", "n": 2, "quotient_casson": 0, "spectrum": [0, 0], "floer_ranks": [1] * 8},
            "70 sign assignments realize the target, among them {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}, ",
        ),
        (
            "knot",
            {"name": "x", "seifert": [[-1, 1], [0, -1]], "k" * 3000: 0},
            "Additional properties are not allowed in $",
        ),
    ],
    ids=["t79-and-spectrum", "t1315-and-spectrum", "nested-900", "ambiguous-pattern", "long-extra-key"],
)
def test_error_line_names_a_long_value_by_its_path(command, data, reason, tmp_path, capsys):
    # a branched request with both a branch_knot matrix and a spectrum once
    # reprinted the whole request, 7 KB for T(7, 9) and 85 KB for T(13, 15);
    # a 3,000-character unexpected key was repeated in full
    from casson4 import torus_knot_seifert

    if "torus" in data:
        rows = [list(row) for row in torus_knot_seifert(*data["torus"]).entries]
        data = {"type": "branched", "n": 2, "quotient_casson": 0,
                "branch_knot": {"seifert": rows}, "spectrum": [0, 0]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"schema": 1, **data}))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err
    assert len(err.encode()) <= 1000


def test_mapping_torus_without_supported_gradings_names_no_pattern(tmp_path, capsys):
    path = tmp_path / "no_gradings.json"
    path.write_text(json.dumps({"schema": 1, "type": "branched", "n": 2, "quotient_casson": 0,
                                "spectrum": [0, 0], "floer_ranks": [0] * 8}))
    code, report, _ = run_json(["mapping-torus", "--input", str(path)], capsys)
    assert code == 0
    assert report["invariants"]["sign_pattern"] == {}
    assert "pattern" not in report["invariants"]
    assert report["certificates"] == []


def test_mapping_torus_asymmetric_spectrum_exits_1(tmp_path, capsys):
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps({"schema": 1, "type": "branched", "n": 3, "quotient_casson": 0,
                                "spectrum": [0, 2, 4]}))
    code, out, err = run_cli(["mapping-torus", "--input", str(path)], capsys)
    assert (code, out, err) == (1, "", "error: spectrum breaks conjugation symmetry at m = 1\n")


def test_bound_limit_is_that_of_the_largest_torus_reference():
    from casson4 import cli, torus_knot_seifert

    for p, q in ((13, 15), (15, 13)):
        assert cli._cost_bits(torus_knot_seifert(p, q).entries) == 390
    assert cli._MAX_BOUND_BITS == 390


def test_cost_cap_holds_every_bound_the_entries_set():
    # the cap of _cost_bits is at least each part of a prime's bound that the
    # entries set, and the Hadamard bound of S + S^T that the Descartes oracle
    # of order 2 sizes its prime by: on seeded matrices, on their conjugates
    # with entries in the hundreds, and on T(13, 15)
    import random

    from casson4 import cli, seifert, torus_knot_seifert
    from helpers import charpoly_bound, congruent, random_seifert, random_unimodular

    rng = random.Random(2411)
    knots = [s for s in (random_seifert(rng) for _ in range(40)) if s.size]
    knots += [congruent(s, random_unimodular(rng, s.size, 12 * s.size)) for s in knots]
    knots.append(torus_knot_seifert(13, 15))
    assert max(abs(x) for s in knots for row in s.entries for x in row) >= 100
    for s in knots:
        e = s.entries
        symmetric = [[a + b for a, b in zip(row, col)] for row, col in zip(e, zip(*e))]
        bounds = (seifert._coefficient_bound(e), seifert._minor_sum_bound(e),
                  charpoly_bound(symmetric))
        assert max(b.bit_length() for b in bounds) <= cli._cost_bits(e), s


_HUGE = 2**1000  # a 4 x 4 matrix of such entries once took over 600 s at order 64


@pytest.mark.parametrize(
    "command,data",
    [
        ("knot", {"name": "huge", "seifert": [[_HUGE, 0, 0, 0], [1, _HUGE, 0, 0],
                                              [0, 0, _HUGE, 0], [0, 0, 1, _HUGE]],
                  "spectrum_order": 64}),
        ("sphere", {"steps": [{"knot": [[_HUGE, 0], [1, _HUGE]], "q": 1}]}),
        ("circle_bundle", {"knot": {"seifert": [[_HUGE, 0], [1, _HUGE]]}, "euler": 1}),
    ],
    ids=["knot", "inline", "seifert-object"],
)
def test_knots_above_the_bound_limit_exit_1_fast(command, data, tmp_path):
    # run apart, under a timeout: without the limit the prime search hangs
    import time

    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"schema": 1, **data}))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "casson4.cli", command.replace("_", "-"), "--input", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "more than 390" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["knot"],
        ["knot", "--input", str(FIXTURES / "trefoil.json"), "--format", "xml"],
        ["bogus"],
        ["sweep", "--family", "free-quotients", "--range", "-1,3"],
    ],
    ids=["no-input", "bad-format", "unknown-subcommand", "leading-minus-range"],
)
def test_malformed_command_line_exits_1(args, capsys):
    # argparse exits 2 on its own, the code reserved for a failed congruence
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (1, "")
    assert "error: " in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0 and out.startswith("usage: casson4")


def test_free_quotient_signature_defect_exits_3_in_one_line(monkeypatch, capsys):
    # the family's knots are fixed: a signature off 8Z is a defect, not bad input
    from fractions import Fraction

    from casson4 import cli

    monkeypatch.setattr(cli, "equivariant_casson_branched", lambda d: Fraction(1, 2))
    code, out, err = run_cli(["sweep", "--family", "free-quotients"], capsys)
    assert (code, out) == (3, "")
    assert err == "internal error: torus(3,5): signature 4 is not divisible by 8\n"


def _float_first_int(node):
    """The JSON value with its first integer leaf (other than "schema") as a float."""
    if isinstance(node, dict):
        keys = [k for k in node if k != "schema"]
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return None
    for k in keys:
        v = node[k]
        if isinstance(v, int) and not isinstance(v, bool):
            node[k] = float(v)
            return node
        if _float_first_int(v) is not None:
            return node
    return None


@pytest.mark.parametrize(
    "command,fixture",
    [
        ("knot", "trefoil"),
        ("sphere", "poincare_sphere"),
        ("floer", "floer_cork"),
        ("torus4", "t4_explicit"),
        ("mapping-torus", "cork"),
        ("circle-bundle", "whitehead_bundle"),
    ],
)
def test_integral_floats_are_schema_errors(command, fixture, tmp_path, capsys):
    # JSON Schema draft 7 counts 1.0 as an integer; the library takes only
    # ints, so the schema check refuses it with exit 1 instead of a traceback
    data = _float_first_int(json.loads((FIXTURES / f"{fixture}.json").read_text()))
    path = tmp_path / "float.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert code == 1 and not out
    assert err.startswith("error:") and "is not of type 'integer'" in err
