"""Command-line front end.

Subcommands take a JSON input file conforming to the schemas shipped in
casson4/schemas, compute invariants, and emit a report either as a
human-readable table or as canonical JSON.  Exit codes: 0 on success, 1
on bad input or a malformed command line, 2 when a mandated congruence
fails (a regression alarm, so CI can distinguish it from input trouble),
3 when an internal invariant fails (a defect in casson4, reported in one
line).  A failed input check (a non-integral mapping-torus invariant)
still prints its report, with exit code 1.

Each subcommand is a row of ``_COMMANDS``: its schema name and a handler
``cmd_<name>(data) -> (invariants, congruences, certificates)``.  The
handler sees only schema-valid input and returns plain dicts in report
line order; congruence values are truth values.  ``build_report`` is the
one place that turns them into an ``InvariantReport`` (name, input
digest, 0/1 congruence bits) and its exit code; ``main`` loads, builds,
renders and maps errors for every subcommand, ``sweep`` included.

Reports are deterministic: the same input bytes always produce the same
output bytes, and every report echoes a digest of its (canonicalized)
input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import gcd

import jsonschema

from .bundles import CircleBundleData, circle_bundle_report
from .equivariant import (
    BranchedQuotientData,
    FreeQuotientData,
    branched_free_relation,
    check_rohlin_congruence,
    furuta_ohta_mapping_torus,
    matched_cover_data,
)
from .errors import (
    Casson4Error, HypothesisFails, InternalError, NonIntegral, ParseError, SchemaError
)
from .floer import (
    FloerData,
    check_evenness,
    deduce_sign_pattern,
    lambda_fo_from_lefschetz,
    lefschetz,
)
from .laurent import second_derivative_at_one
from .seifert import (
    SeifertMatrix,
    SignatureSpectrum,
    _minor_sum_bound,
    alexander_polynomial,
    arf_invariant,
    preset_knot,
    signature_spectrum,
    torus_knot_seifert,
)
from .spheres import (
    SurgeryPresentation,
    check_casson_rohlin,
    mubar_double_branched,
)
from .tori import (
    CupRing,
    ThreeTorusForm,
    admissible,
    as_h2,
    bundle_exists,
    det4,
    donaldson_mod2,
    four_orbit_count,
    product_ring,
    torus4_ring,
)

SCHEMA_VERSION = 1
_MAX_KNOT_SIZE = 168  # rows of a Seifert matrix, as in defs.json: T(13, 15), the sweep's largest
# bits of the coefficient bound B, which sets the primes: T(13, 15)'s, the largest torus reference
_MAX_BOUND_BITS = 390


# --- input plumbing ---

@lru_cache(maxsize=8)  # one entry per JSON Schema draft; every shipped schema is draft-07
def _strict_integers(cls):
    """Validator class cls with "integer" meaning a JSON integer: 1.0 is refused, not passed on."""
    strict = cls.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)
    )
    return jsonschema.validators.extend(cls, type_checker=strict)


@lru_cache(maxsize=None)
def _validator(name: str):
    """The validator of schema ``name``, built on first use.

    The shipped schemas are checked against their metaschema by the
    tests, not here in every process.
    """
    files = resources.files("casson4.schemas")
    text = files.joinpath(f"{name}.json").read_text()
    # inline the shared definitions so no resolver configuration is needed
    text = text.replace("defs.json#/", "#/")
    doc = json.loads(text)
    defs = json.loads(files.joinpath("defs.json").read_text())
    doc.setdefault("definitions", {}).update(defs["definitions"])
    return _strict_integers(jsonschema.validators.validator_for(doc))(doc)


def load_input(path: str, schema_name: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
        # the error jsonschema.validate would raise, without re-checking the schema
        error = jsonschema.exceptions.best_match(_validator(schema_name).iter_errors(data))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:  # from the parser, or the schema check's repr of the value
        raise ParseError(f"{path} nests its JSON too deeply to read") from None
    if error is not None:
        if error.validator == "maxItems":  # name the limit, not the whole array
            error.message = f"{error.json_path} has more than {error.validator_value} items"
        raise SchemaError(f"{path}: {error.message}")
    return data


def input_digest(data) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def resolve_knot(ref) -> SeifertMatrix:
    if isinstance(ref, str):
        try:
            return preset_knot(ref)
        except KeyError as exc:
            raise SchemaError(exc.args[0]) from None
    if isinstance(ref, dict) and "torus" in ref:
        p, q = ref["torus"]
        if (p - 1) * (q - 1) > _MAX_KNOT_SIZE:
            raise SchemaError(f"torus({p},{q}) has more than {_MAX_KNOT_SIZE} Seifert rows")
        return torus_knot_seifert(p, q)
    rows = ref["seifert"] if isinstance(ref, dict) else ref
    # on the raw rows, before the constructor's Bareiss determinant: uncached
    bits = _minor_sum_bound.__wrapped__(rows).bit_length()
    if bits > _MAX_BOUND_BITS:
        raise SchemaError(
            f"the Seifert matrix's coefficient bound has {bits} bits, more than {_MAX_BOUND_BITS}"
        )
    return SeifertMatrix(rows)


def _frac_json(value: Fraction | int):
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


# --- reports ---

# A failed congruence is a regression alarm (exit 2), except these checks,
# which fail only on input that describes no geometric object (exit 1).
INPUT_CHECKS = frozenset({"integral"})


@dataclass
class InvariantReport:
    command: str
    input_digest: str
    invariants: dict
    congruences: dict = field(default_factory=dict)
    certificates: list = field(default_factory=list)
    name: str | None = None

    def to_dict(self) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "input_digest": self.input_digest,
            "invariants": self.invariants,
            "congruences": self.congruences,
            "certificates": list(self.certificates),
        }
        if self.name is not None:
            out["name"] = self.name
        return out

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def render_human(self) -> str:
        lines = [f"command: {self.command}" + (f" ({self.name})" if self.name else "")]
        lines.append(f"input:   {self.input_digest}")
        if self.invariants:
            lines.append("invariants:")
            for key, value in self.invariants.items():
                lines.append(f"  {key}: {value}")
        if self.congruences:
            lines.append("congruences:")
            for key, value in self.congruences.items():
                lines.append(f"  {key}: {'pass' if value else 'FAIL'}")
        for note in self.certificates:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def exit_code(self) -> int:
        failed = {key for key, value in self.congruences.items() if value == 0}
        if failed & INPUT_CHECKS:
            return 1
        return 2 if failed else 0


def build_report(command: str, data: dict) -> tuple[InvariantReport, int]:
    """Run the handler of ``command`` on validated input; the report and exit code."""
    invariants, congruences, certificates = _COMMANDS[command][1](data)
    report = InvariantReport(
        command,
        input_digest(data),
        invariants,
        congruences={key: int(value) for key, value in congruences.items()},
        certificates=certificates,
        name=data.get("name"),
    )
    return report, report.exit_code()


def _sign_pattern(ranks, lef: int) -> dict:
    pattern = deduce_sign_pattern(ranks, lef)
    return {str(k): v for k, v in sorted(pattern.items())}


# --- subcommands: each returns (invariants, congruences, certificates) ---

Computed = tuple[dict, dict, list]


def cmd_knot(data: dict) -> Computed:
    knot = resolve_knot(data["seifert"])
    order = data.get("spectrum_order", 2)
    delta = alexander_polynomial(knot)
    d2 = second_derivative_at_one(delta)
    arf = arf_invariant(knot)
    spectrum = signature_spectrum(knot, order)
    delta_minus_one = delta(-1)
    invariants = {
        "genus": knot.genus,
        "alexander": str(delta),
        "alexander_coeffs": [[e, c] for e, c in delta.items()],
        "alexander_at_minus_one": delta_minus_one,
        "delta_second_derivative": d2,
        "arf": arf,
        "spectrum_order": order,
        "spectrum": list(spectrum.values),
    }
    congruences = {
        "murasugi_mod8": (arf == 0) == (delta_minus_one % 8 in (1, 7)),
        "half_d2_equals_arf_mod2": (d2 // 2) % 2 == arf % 2,
    }
    return invariants, congruences, []


def cmd_sphere(data: dict) -> Computed:
    steps = [(resolve_knot(step["knot"]), step["q"]) for step in data["steps"]]
    presentation = SurgeryPresentation(steps)
    result = check_casson_rohlin(presentation)
    invariants = {
        "steps": len(presentation),
        "casson": result.casson,
        "rohlin": result.rohlin,
    }
    return invariants, {"casson_equals_rohlin_mod2": result.congruent}, []


def cmd_mapping_torus(data: dict) -> Computed:
    n = data["n"]
    if data["type"] == "branched":
        if "branch_knot" in data:
            spectrum = signature_spectrum(resolve_knot(data["branch_knot"]), n)
        else:
            try:
                spectrum = SignatureSpectrum(n, data["spectrum"])
            except ValueError as exc:
                raise SchemaError(str(exc)) from None
        quotient = BranchedQuotientData(n, data["quotient_casson"], spectrum)
    else:
        quotient = FreeQuotientData(
            n, data["q"], data["quotient_casson"], resolve_knot(data["branch_knot"])
        )
    lam = furuta_ohta_mapping_torus(quotient)
    invariants = {"lambda_fo": _frac_json(lam)}
    congruences = {"integral": lam.denominator == 1}
    if lam.denominator != 1:
        return invariants, congruences, ["non-integral invariant: input is not geometric"]
    certificates = []
    lef = invariants["lefschetz"] = 2 * int(lam)
    if "rho_cover" in data:
        rho = invariants["rho"] = data["rho_cover"]
        congruences["lambda_fo_equals_rho_mod2"] = check_rohlin_congruence(quotient, rho).congruent
    if "floer_ranks" in data:
        pattern = _sign_pattern(data["floer_ranks"], lef)
        signs = set(pattern.values())
        invariants["sign_pattern"] = pattern
        invariants["pattern"] = (
            "minus-identity" if signs == {-1} else "identity" if signs == {1} else "mixed"
        )
        certificates.append(
            "sign pattern forced by Lefschetz number on rank-one gradings"
        )
    return invariants, congruences, certificates


def cmd_floer(data: dict) -> Computed:
    fixture = FloerData(data["ranks"], data.get("maps"))
    lef = lefschetz(fixture)
    even = check_evenness(fixture)
    invariants = {"lefschetz": _frac_json(lef), "even": even}
    congruences = {"evenness": even} if data.get("geometric", True) else {}
    if even:
        invariants["lambda_fo"] = lambda_fo_from_lefschetz(fixture)
    if "target_lef" in data:
        invariants["sign_pattern"] = _sign_pattern(data["ranks"], data["target_lef"])
    return invariants, congruences, []


def cmd_torus4(data: dict) -> Computed:
    if "three_form" in data:
        ring = product_ring(ThreeTorusForm(data["three_form"]))
    elif data.get("preset") == "T4":
        ring = torus4_ring()
    else:
        ring = CupRing(data["cup2"], data["pairing"], data["eval_top"])
    determinant = det4(ring)
    invariants = {"det4": determinant}
    congruences = {}
    certificates = []
    if "three_form" in data:
        invariants["det3"] = data["three_form"]
        congruences["det4_equals_det3"] = determinant == data["three_form"]
    if "w" in data:
        w = as_h2(data["w"])
        invariants["w"] = w
        invariants["admissible"] = int(admissible(ring, w))
        invariants["bundle_exists"] = int(bundle_exists(ring, w))
        four = four_orbit_count(ring, w)
        invariants["four_orbit_count"] = four
        invariants["orbit_census"] = {
            "4": four,
            "8": "unknown (gauge-theoretic)",
            "16": "unknown (gauge-theoretic)",
        }
        certificates.append("no orbits of order one or two in the plane stratum")
        try:
            quarter = donaldson_mod2(ring, w)
        except HypothesisFails:
            certificates.append(
                "degree-zero count undefined for this w (hypothesis fails); "
                "orbit counts reported without the parity check"
            )
        else:
            invariants["donaldson_mod2"] = quarter
            congruences["quarter_count_equals_det4_mod2"] = quarter == determinant
    return invariants, congruences, certificates


def cmd_circle_bundle(data: dict) -> Computed:
    bundle = CircleBundleData(resolve_knot(data["knot"]), data["euler"])
    result = circle_bundle_report(bundle)
    invariants = {
        "rho": result.rho,
        "furuta_ohta": result.furuta_ohta,
        "arf": result.arf,
        "delta_second_derivative": result.second_derivative,
    }
    congruences = {"lambda_fo_equals_rho_mod2": result.congruent}
    return invariants, congruences, list(result.certificate)


# --- sweeps ---

def _parse_range(spec: str | None) -> dict:
    """{key: [ints]} from "key=int[,int...][;key=int[,int...]...]".

    A value is ASCII digits with an optional leading minus, so an empty
    one between commas is refused; a key may appear once.
    """
    out: dict = {}
    for part in filter(None, (p.strip() for p in (spec or "").split(";"))):
        key, sep, value = part.partition("=")
        items = [v.strip() for v in value.split(",")]
        if not sep or not all(re.fullmatch("-?[0-9]+", v) for v in items):
            raise SchemaError(f"range entries look like key=int[,int...], got {part!r}")
        key = key.strip()
        if key in out:
            raise SchemaError(f"range key {key} is given more than once")
        out[key] = [int(v) for v in items]
    return out


def _sweep_torus_knot_covers(params: dict) -> list[dict]:
    q_list = params.get("q", [3, 5, 7, 9, 11])
    r_list = params.get("r")
    pairs = []
    for index, q in enumerate(q_list):
        if q % 2 == 0 or q < 3:
            raise SchemaError(f"cover sweep needs odd q >= 3, got {q}")
        if r_list is None:
            r = q + 2
        else:
            r = r_list[index % len(r_list)]
        if r % 2 == 0 or gcd(q, r) != 1:
            raise SchemaError(f"({q}, {r}) must be odd and coprime")
        pairs.append((q, r))
    instances = []
    for q, r in pairs:
        knot = torus_knot_seifert(q, r)
        determinant = abs(alexander_polynomial(knot)(-1))
        mubar = mubar_double_branched(knot)
        # the double cover bounds the even form S + S^T, so its Rohlin
        # invariant is sign/8 = mubar mod 2
        rho = int(mubar) % 2
        data = BranchedQuotientData(2, 0, signature_spectrum(knot, 2))
        report = check_rohlin_congruence(data, rho)
        instances.append(
            {
                "instance": f"double cover over T({q},{r})",
                "q": q,
                "r": r,
                "cover_is_homology_sphere": int(determinant == 1),
                "lambda_fo": _frac_json(report.lambda_fo),
                "mubar": _frac_json(mubar),
                "rho": rho,
                "congruent": report.congruent,
                "mubar_agrees": int(mubar == report.lambda_fo),
            }
        )
    return instances


def _sweep_free_quotients(params: dict) -> list[dict]:
    q_list = params.get("q", [1, 3, 5])
    knots = [
        ("torus(3,5)", torus_knot_seifert(3, 5)),
        ("torus(3,7)", torus_knot_seifert(3, 7)),
        ("untwisted_double", preset_knot("untwisted_double")),
    ]
    instances = []
    for name, knot in knots:
        try:
            mubar = mubar_double_branched(knot)
        except NonIntegral as exc:  # fixed knots: a defect, not bad input
            raise InternalError(f"{name}: {exc}") from None
        arf = arf_invariant(knot)
        for q in q_list:
            if gcd(2, q) != 1:
                raise SchemaError(f"free quotient of order 2 needs odd q, got {q}")
            data = FreeQuotientData(2, q, 0, knot)
            # rho of the cover: rho of the double branched cover plus
            # q * arf of the lifted knot (arf is preserved by the lift)
            rho = (int(mubar) + q * arf) % 2
            report = check_rohlin_congruence(data, rho)
            relation = branched_free_relation(data, matched_cover_data(data))
            instances.append(
                {
                    "instance": f"free quotient: (2/{q})-surgery on {name}",
                    "knot": name,
                    "q": q,
                    "lambda_fo": _frac_json(report.lambda_fo),
                    "rho": rho,
                    "congruent": report.congruent,
                    "cover_relation": relation,
                }
            )
    return instances


def _sweep_surgery_chains(params: dict) -> list[dict]:
    count = params.get("count", [100])[0]
    steps = params.get("steps", [5])[0]
    seed = params.get("seed", [0])[0]
    rng = random.Random(seed)
    pool = [
        preset_knot("left_trefoil"),
        preset_knot("right_trefoil"),
        preset_knot("figure_eight"),
        preset_knot("untwisted_double"),
        torus_knot_seifert(2, 5),
        torus_knot_seifert(3, 4),
    ]
    instances = []
    for index in range(count):
        chain = SurgeryPresentation(
            [
                (rng.choice(pool), rng.choice([-3, -2, -1, 1, 2, 3]))
                for _ in range(rng.randint(0, steps))
            ]
        )
        result = check_casson_rohlin(chain)
        instances.append(
            {
                "instance": f"chain #{index}",
                "steps": len(chain),
                "casson": result.casson,
                "rohlin": result.rohlin,
                "congruent": result.congruent,
            }
        )
    return instances


def _sweep_three_forms(params: dict) -> list[dict]:
    rings = [
        ("product ring, triple form 0", product_ring(ThreeTorusForm(0))),
        ("product ring, triple form 1", product_ring(ThreeTorusForm(1))),
        ("T4 exterior ring", torus4_ring()),
    ]
    instances = []
    for name, ring in rings:
        determinant = det4(ring)
        admissible_count = 0
        failures = 0
        for w in range(1, 64):
            try:
                quarter = donaldson_mod2(ring, w)
            except HypothesisFails:
                continue
            admissible_count += 1
            if quarter != determinant:
                failures += 1
        instances.append(
            {
                "instance": name,
                "det4": determinant,
                "admissible_w": admissible_count,
                "parity_failures": failures,
                "congruent": int(failures == 0),
            }
        )
    return instances


# family -> (instance generator, {--range key: (most values, allowed values or None)})
_FAMILIES = {
    "torus-knot-covers": (
        _sweep_torus_knot_covers, {"q": (16, range(3, 14)), "r": (16, range(3, 16))}
    ),
    "free-quotients": (_sweep_free_quotients, {"q": (16, None)}),
    "surgery-chains": (
        _sweep_surgery_chains,
        {"count": (1, range(10_001)), "steps": (1, range(65)), "seed": (1, None)},
    ),
    "three-forms": (_sweep_three_forms, {}),
}


def cmd_sweep(family: str, range_spec: str | None) -> tuple[dict, int]:
    if family not in _FAMILIES:
        raise SchemaError(
            f"unknown family {family!r}; available: {sorted(_FAMILIES)}"
        )
    sweep, keys = _FAMILIES[family]
    params = _parse_range(range_spec)
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise SchemaError(
            f"family {family!r} reads no range key {', '.join(unknown)}; "
            f"its keys: {', '.join(keys) or 'none'}"
        )
    for key, items in params.items():
        most, allowed = keys[key]
        if len(items) > most or any(allowed is not None and v not in allowed for v in items):
            limits = "" if allowed is None else f" in {allowed.start}..{allowed.stop - 1}"
            raise SchemaError(f"range key {key}: at most {most} value(s){limits}, got {items}")
    instances = sweep(params)
    passed = sum(1 for inst in instances if inst["congruent"] == 1)
    failed = len(instances) - passed
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "sweep",
        "family": family,
        "range": params,
        "input_digest": input_digest({"family": family, "range": params}),
        "instances": instances,
        "summary": {
            "instances": len(instances),
            "congruence_passes": passed,
            "congruence_failures": failed,
        },
    }
    return payload, (2 if failed else 0)


@dataclass
class SweepReport:
    payload: dict

    def render_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2)

    def render_human(self) -> str:
        payload = self.payload
        lines = [f"sweep: {payload['family']}"]
        for inst in payload["instances"]:
            status = "ok" if inst["congruent"] == 1 else "CONGRUENCE FAIL"
            fields = ", ".join(
                f"{k}={v}" for k, v in inst.items() if k not in ("instance", "congruent")
            )
            lines.append(f"  {inst['instance']}: {fields} [{status}]")
        summary = payload["summary"]
        lines.append(
            f"summary: {summary['congruence_passes']}/{summary['instances']} congruences hold"
        )
        return "\n".join(lines)


# --- entry point ---

_COMMANDS = {
    "knot": ("knot", cmd_knot),
    "sphere": ("sphere", cmd_sphere),
    "mapping-torus": ("mapping_torus", cmd_mapping_torus),
    "floer": ("floer", cmd_floer),
    "torus4": ("torus4", cmd_torus4),
    "circle-bundle": ("circle_bundle", cmd_circle_bundle),
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="casson4",
        description="exact Casson-type invariants and congruence checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command, help=f"run the {command} computation")
        p.add_argument("--input", required=True, help="path to a JSON input file")
        p.add_argument(
            "--format", choices=("human", "json"), default="human",
            help="output format (json is the canonical machine format)",
        )
    p = sub.add_parser("sweep", help="evaluate a family and check congruences")
    p.add_argument("--family", required=True, help=f"one of {sorted(_FAMILIES)}")
    p.add_argument("--range", default=None, help="family parameters, e.g. 'q=3,5,7'")
    p.add_argument("--format", choices=("human", "json"), default="human")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error, or the help
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "sweep":
            payload, code = cmd_sweep(args.family, args.range)
            report = SweepReport(payload)
        else:
            data = load_input(args.input, _COMMANDS[args.command][0])
            report, code = build_report(args.command, data)
        print(report.render_json() if args.format == "json" else report.render_human())
        return code
    except (Casson4Error, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
