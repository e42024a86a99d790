import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    data = {"schema": 1, "name": "non-bundle class", "preset": "T4", "w": 33}
    path = tmp_path / "t4w.json"
    path.write_text(json.dumps(data))
    code, report, _ = run_json(["torus4", "--input", str(path)], capsys)
    assert code == 0
    assert report["invariants"]["bundle_exists"] == 0
    assert report["invariants"]["four_orbit_count"] == 0
    assert "donaldson_mod2" not in report["invariants"]
    assert "quarter_count_equals_det4_mod2" not in report["congruences"]


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


def test_minor_sum_defect_exits_3_in_one_line(monkeypatch, tmp_path, capsys):
    from casson4 import seifert

    data = json.loads((FIXTURES / "trefoil.json").read_text())
    data["spectrum_order"] = 6
    path = tmp_path / "trefoil6.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(seifert, "_minor_sum_bound", lambda entries: 1)
    seifert._minor_sums.cache_clear()
    seifert._tl_orbit_cached.cache_clear()
    try:
        code, out, err = run_cli(["knot", "--input", str(path)], capsys)
    finally:
        seifert._minor_sums.cache_clear()
        seifert._tl_orbit_cached.cache_clear()
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_charpoly_defect_exits_3_in_one_line(monkeypatch, capsys):
    from casson4 import inertia, seifert

    monkeypatch.setattr(inertia, "_charpoly_bound", lambda M: 1)
    seifert._minor_sums.cache_clear()
    seifert._tl_orbit_cached.cache_clear()
    try:
        code, out, err = run_cli(
            ["knot", "--input", str(FIXTURES / "trefoil.json")], capsys
        )
    finally:
        seifert._minor_sums.cache_clear()
        seifert._tl_orbit_cached.cache_clear()
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1


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
