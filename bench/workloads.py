"""Seeded inputs and their expected outcomes, in plain Python.

Nothing here imports casson4: the library only ever sees the inputs made
here, and every expected value is derived independently of it (closed
forms for torus knots, Litherland's signature count, Levine's Arf rule).
The same seed always gives the same inputs.

Each workload builds a list of jobs.  A job is a JSON-ready dict with
``kind`` (what the worker runs), ``args`` (what the library receives) and
``expect`` (what the checker compares against).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd

# --- knot facts ---


def torus_seifert(p: int, q: int) -> list[list[int]]:
    """Seifert matrix of T(p, q) on the brick basis of its fiber surface."""
    size = (p - 1) * (q - 1)

    def idx(i: int, k: int) -> int:
        return (i - 1) * (q - 1) + (k - 1)

    V = [[0] * size for _ in range(size)]
    for i in range(1, p):
        for k in range(1, q):
            V[idx(i, k)][idx(i, k)] = -1
            if k + 1 < q:
                V[idx(i, k)][idx(i, k + 1)] = 1
            if i + 1 < p:
                V[idx(i + 1, k)][idx(i, k)] = 1
                if k > 1:
                    V[idx(i + 1, k - 1)][idx(i, k)] = -1
    return V


def _poly_div(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (ascending), den monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        for j, dj in enumerate(den):
            num[k + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _t_power_minus_one(k: int) -> list[int]:
    return [-1] + [0] * (k - 1) + [1]


def torus_alexander(p: int, q: int) -> dict[int, int]:
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), centred at t^0."""
    num = _poly_mul(_t_power_minus_one(p * q), _t_power_minus_one(1))
    den = _poly_mul(_t_power_minus_one(p), _t_power_minus_one(q))
    coeffs = _poly_div(num, den)
    g = (len(coeffs) - 1) // 2
    return {e - g: c for e, c in enumerate(coeffs) if c}


def torus_signature(p: int, q: int, a: Fraction) -> int:
    """Litherland's count for the right-handed T(p, q) at e^(2 pi i a)."""
    if a == 0:
        return 0
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            if a < s < a + 1:
                total -= 1
            elif s < a or s > a + 1:
                total += 1
    return total


class Knot:
    """A base knot and what is known about it in closed form."""

    def __init__(self, matrix, alexander, torus=None, chirality=1):
        self.matrix = matrix
        self.alexander = alexander
        self.torus = torus
        self.chirality = chirality

    def spectrum(self, n: int, mirrored: bool = False) -> list[int]:
        sign = -self.chirality if mirrored else self.chirality
        if self.torus is None:
            return [0] * n
        p, q = self.torus
        return [sign * torus_signature(p, q, Fraction(m, n)) for m in range(n)]

    def at_minus_one(self) -> int:
        return sum(c * (-1) ** (e % 2) for e, c in self.alexander.items())

    def second_derivative(self) -> int:
        return sum(c * e * (e - 1) for e, c in self.alexander.items())

    def arf(self) -> int:
        # Levine: Arf = 0 exactly when Delta(-1) = +-1 mod 8
        return 0 if self.at_minus_one() % 8 in (1, 7) else 1


def _torus(p: int, q: int) -> Knot:
    return Knot(torus_seifert(p, q), torus_alexander(p, q), (p, q))


TREFOIL = {1: 1, 0: -1, -1: 1}
KNOTS = {
    "unknot": Knot([], {0: 1}),
    "right_trefoil": Knot([[-1, 1], [0, -1]], TREFOIL, (2, 3)),
    "left_trefoil": Knot([[1, 0], [1, 1]], TREFOIL, (2, 3), -1),
    "figure_eight": Knot([[1, 1], [0, -1]], {1: -1, 0: 3, -1: -1}),
    "untwisted_double": Knot([[-1, 1], [0, 0]], {0: 1}),
}
for _p, _q in ((2, 5), (2, 7), (3, 4), (2, 9), (3, 5)):
    KNOTS[f"T({_p},{_q})"] = _torus(_p, _q)


# --- matrix moves that keep the knot ---


def mirror(S: list[list[int]]) -> list[list[int]]:
    n = len(S)
    return [[-S[j][i] for j in range(n)] for i in range(n)]


def stabilize(S: list[list[int]], rng: random.Random) -> list[list[int]]:
    """Add a trivial hyperbolic pair with a random linking column."""
    n = len(S)
    col = [rng.choice((-1, 0, 1)) for _ in range(n)]
    out = [list(row) + [col[i], 0] for i, row in enumerate(S)]
    out.append([0] * n + [0, 1])
    out.append([0] * n + [0, 0])
    return out


def unimodular(n: int, rng: random.Random, moves: int) -> list[list[int]]:
    """Random signs on the basis, then ``moves`` random transvections.

    A fixed number of moves, and no permutation of the basis, keep the
    entry growth, and so the cost of exact arithmetic on the conjugate,
    about the same from seed to seed.
    """
    P = [[rng.choice((-1, 1)) if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(moves if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
    return P


def congruent(S: list[list[int]], P: list[list[int]]) -> list[list[int]]:
    """P^T S P."""
    n = len(S)
    SP = [[sum(S[i][k] * P[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(P[k][i] * SP[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def conjugate(S: list[list[int]], rng: random.Random, moves: int) -> list[list[int]]:
    return congruent(S, unimodular(len(S), rng, moves))


# --- cover-sweep ---

COVER_QS = (3, 5, 7)
# transvections in the seeded change of basis (see unimodular)
COVER_MOVES = 4


def cover_sweep(seed: int) -> list[dict]:
    """Double branched covers over T(q, q+2), on two bases each."""
    rng = random.Random(seed)
    jobs = []
    for q in COVER_QS:
        r = q + 2
        knot = _torus(q, r)
        base = knot.matrix
        sig = torus_signature(q, r, Fraction(1, 2))
        expect = {
            "alexander": sorted(knot.alexander.items()),
            "at_minus_one": knot.at_minus_one(),
            "signature": sig,
            "spectrum": [0, sig],
            "lambda_fo": str(Fraction(sig, 8)),
            "mubar": str(Fraction(sig, 8)),
        }
        for basis, matrix in (("fiber", base), ("seeded", conjugate(base, rng, COVER_MOVES))):
            jobs.append(
                {
                    "kind": "cover",
                    "label": f"T({q},{r}) {basis} basis",
                    "args": {"seifert": matrix},
                    "expect": expect,
                }
            )
    return jobs


# --- spectra ---

# (order n, knot size) -> jobs per pass.  Fixed counts keep the cost of a
# pass, and where its 90th percentile falls, the same for every seed: the
# seed only picks which knot of a size class each job uses.
SPECTRA_PLAN = {
    5: {2: 28, 4: 3},
    7: {2: 8},
    8: {2: 26, 4: 12},
    12: {2: 20, 8: 1},
    13: {2: 3},
}

# base knots of genus g (size 2g); a base of size s - 2 is stabilized to s
BASES_BY_SIZE = {
    2: ("right_trefoil", "left_trefoil", "figure_eight", "untwisted_double"),
    4: ("T(2,5)",),
    6: ("T(2,7)", "T(3,4)"),
    8: ("T(2,9)", "T(3,5)"),
}


def _spectra_pool(size: int) -> list[tuple[str, bool]]:
    """(base knot, stabilized?) pairs that give a matrix of this size."""
    pool = [(name, False) for name in BASES_BY_SIZE[size]]
    return pool + [(name, True) for name in BASES_BY_SIZE.get(size - 2, ())]


def spectra(seed: int) -> list[dict]:
    """Mapping tori of order n over seeded knots of genus <= 4.

    Each size class cycles through its base knots in a fixed order; the
    seed picks the stabilizing column, the change of basis, the quotient
    Casson invariant and the framing.  No matrix repeats within an order,
    nor is any the mirror of another, so no job is served from another
    job's cache entries.
    """
    rng = random.Random(seed)
    jobs = []
    for n, sizes in SPECTRA_PLAN.items():
        used = set()
        for size, count in sizes.items():
            pool = _spectra_pool(size)
            for index in range(count):
                name, stabilized = pool[index % len(pool)]
                knot = KNOTS[name]
                base = stabilize(knot.matrix, rng) if stabilized else knot.matrix
                moves = len(base) // 2 + 1
                matrix = conjugate(base, rng, moves)
                while repr(matrix) in used:  # more moves until it is new
                    moves += 1
                    matrix = conjugate(base, rng, moves)
                used.update((repr(matrix), repr(mirror(matrix))))
                c = rng.randint(-2, 2)
                q = rng.choice([k for k in (-3, -2, -1, 1, 2, 3) if gcd(k, n) == 1])
                spectrum = knot.spectrum(n)
                total = Fraction(sum(spectrum), 8)
                jobs.append(
                    {
                        "kind": "spectra",
                        "label": f"n={n} {name} size {size}",
                        "args": {"n": n, "seifert": matrix, "casson": c, "q": q},
                        "expect": {
                            "spectrum": spectrum,
                            "mirror_spectrum": knot.spectrum(n, mirrored=True),
                            "branched": str(n * c + total),
                            "free": str(n * c + total + Fraction(q * knot.second_derivative(), 2)),
                            "reversal": [1, 1],
                        },
                    }
                )
    rng.shuffle(jobs)
    return jobs


# --- cli-mix ---

# knots the CLI requests draw from: small, so the seifert caches mostly hit
CLI_KNOTS = ("right_trefoil", "left_trefoil", "figure_eight", "untwisted_double", "T(2,5)", "T(3,4)")
CLI_ORDERS = (2, 3, 4, 5, 6)
TRIVIAL_ALEXANDER = ("unknot", "untwisted_double")

# The share of requests in --format human.  Nothing in the repository says
# how often users ask for it; this is an assumption.  cli-mix's wall_s,
# job_p50_s and job_p90_s and cli.render.s depend on it.
HUMAN_SHARE = 0.25


def _knot_ref(name: str, rng: random.Random):
    """One of the spellings a knot_ref accepts for this knot."""
    knot = KNOTS[name]
    refs = [knot.matrix, {"seifert": knot.matrix}]
    if not name.startswith("T("):
        refs.append(name)
    elif knot.chirality == 1:
        refs.append({"torus": list(knot.torus)})
    return rng.choice(refs)


def _req(command: str, data, expect: dict, rng: random.Random) -> dict:
    fmt = "human" if rng.random() < HUMAN_SHARE else "json"
    return {"kind": "cli", "label": command, "args": {"command": command, "format": fmt, "data": data}, "expect": expect}


def _knot_request(rng, bad):
    if bad:
        choice = rng.randrange(4)
        if choice == 0:
            data = {"schema": 1, "name": "singular", "seifert": [[1, 0], [0, 1]]}
        elif choice == 1:
            data = {"schema": 1, "name": "odd", "seifert": [[1]]}
        elif choice == 2:
            data = {"schema": 1, "seifert": KNOTS["right_trefoil"].matrix}
        else:
            data = {"schema": 1, "name": "order", "seifert": KNOTS["figure_eight"].matrix, "spectrum_order": 0}
        return _req("knot", data, {"code": 1}, rng)
    name = rng.choice(CLI_KNOTS)
    knot = KNOTS[name]
    order = rng.choice(CLI_ORDERS)
    data = {"schema": 1, "name": name, "seifert": knot.matrix, "spectrum_order": order}
    invariants = {
        "genus": len(knot.matrix) // 2,
        "alexander_coeffs": sorted([e, c] for e, c in knot.alexander.items()),
        "alexander_at_minus_one": knot.at_minus_one(),
        "delta_second_derivative": knot.second_derivative(),
        "arf": knot.arf(),
        "spectrum": knot.spectrum(order),
    }
    return _req("knot", data, {"code": 0, "invariants": invariants}, rng)


def _sphere_request(rng, bad):
    steps = []
    casson = rohlin = 0
    for _ in range(rng.randint(0, 4)):
        name = rng.choice(CLI_KNOTS + ("unknot",))
        q = rng.choice((-3, -2, -1, 1, 2, 3))
        steps.append({"knot": _knot_ref(name, rng), "q": q})
        casson += q * KNOTS[name].second_derivative() // 2
        rohlin += q * KNOTS[name].arf()
    if bad:
        if rng.random() < 0.5:
            steps.append({"knot": "right_trefoil", "q": 0})
        else:
            steps.append({"knot": "no_such_knot", "q": 1})
        return _req("sphere", {"schema": 1, "steps": steps}, {"code": 1}, rng)
    data = {"schema": 1, "name": "chain", "steps": steps}
    expect = {"code": 0, "invariants": {"steps": len(steps), "casson": casson, "rohlin": rohlin % 2}}
    return _req("sphere", data, expect, rng)


def _sign_patterns(ranks: list[int], target: int) -> list[dict]:
    supported = [k for k, b in enumerate(ranks) if b]
    out = []
    for signs in product((1, -1), repeat=len(supported)):
        if sum((-1) ** k * e for k, e in zip(supported, signs)) == target:
            out.append({str(k): e for k, e in zip(supported, signs)})
    return out


def _mapping_torus_request(rng, bad):
    """Quotient data; ``bad`` gives free trefoil data, which is not integral."""
    name = rng.choice(("right_trefoil", "left_trefoil") if bad else CLI_KNOTS)
    knot = KNOTS[name]
    n = 2 if bad else rng.choice((2, 3, 4, 5))
    c = rng.randint(-2, 2)
    spectrum = knot.spectrum(n)
    if not bad and rng.random() < 0.5:
        data = {"schema": 1, "type": "branched", "n": n, "quotient_casson": c}
        if rng.random() < 0.5:
            data["spectrum"] = spectrum
        else:
            data["branch_knot"] = _knot_ref(name, rng)
        lam = n * c + Fraction(sum(spectrum), 8)
    else:
        q = rng.choice([k for k in (-3, -1, 1, 3, 5) if gcd(k, n) == 1])
        data = {"schema": 1, "type": "free", "n": n, "q": q, "quotient_casson": c, "branch_knot": _knot_ref(name, rng)}
        lam = n * c + Fraction(sum(spectrum), 8) + Fraction(q * knot.second_derivative(), 2)
    if lam.denominator != 1:
        return _req("mapping-torus", data, {"code": 1, "invariants": {"lambda_fo": f"{lam.numerator}/{lam.denominator}"}}, rng)
    lam = int(lam)
    invariants = {"lambda_fo": lam, "lefschetz": 2 * lam}
    code = 0
    if rng.random() < 0.5:
        rho = rng.randint(0, 1)
        data["rho_cover"] = rho
        code = 0 if lam % 2 == rho else 2
    if rng.random() < 0.3:
        ranks = [rng.randint(0, 1) if k % 2 else 0 for k in range(8)]
        data["floer_ranks"] = ranks
        patterns = _sign_patterns(ranks, 2 * lam)
        if len(patterns) != 1:
            code = 1
            invariants = {}
        else:
            invariants["sign_pattern"] = patterns[0]
    return _req("mapping-torus", data, {"code": code, "invariants": invariants}, rng)


def _floer_request(rng, bad):
    """Graded ranks and maps; outcomes 0, 1 and 2 all occur, so ``bad``
    adds nothing here."""
    ranks = [rng.randint(0, 2) for _ in range(8)]
    data = {"schema": 1, "name": "floer", "ranks": ranks}
    traces = [Fraction(b) for b in ranks]
    if rng.random() < 0.6:
        maps = []
        for k, b in enumerate(ranks):
            style = rng.randrange(3)
            if style == 0:
                maps.append("id")
            elif style == 1:
                maps.append("-id")
                traces[k] = Fraction(-b)
            else:
                diag = [rng.choice(("1", "-1", "1/2", "0", "2")) for _ in range(b)]
                maps.append([[diag[i] if i == j else 0 for j in range(b)] for i in range(b)])
                traces[k] = sum((Fraction(x) for x in diag), Fraction(0))
        data["maps"] = maps
    geometric = rng.random() < 0.7
    if not geometric:
        data["geometric"] = False
    lef = sum((-1) ** k * t for k, t in enumerate(traces))
    even = 1 if lef.denominator == 1 and int(lef) % 2 == 0 else 0
    lef_json = int(lef) if lef.denominator == 1 else f"{lef.numerator}/{lef.denominator}"
    invariants = {"lefschetz": lef_json, "even": even}
    if even:
        lam = lef / 2
        invariants["lambda_fo"] = int(lam) if lam.denominator == 1 else f"{lam.numerator}/{lam.denominator}"
    code = 2 if geometric and not even else 0
    if rng.random() < 0.2:
        ones = [rng.randint(0, 1) for _ in range(8)]
        data["ranks"] = ones
        data.pop("maps", None)
        target = rng.choice((-2, 0, 2, 4))
        data["target_lef"] = target
        lef = sum((-1) ** k * b for k, b in enumerate(ones))
        even = 1 if lef % 2 == 0 else 0
        invariants = {"lefschetz": lef, "even": even}
        code = 2 if geometric and not even else 0
        patterns = _sign_patterns(ones, target)
        if len(patterns) == 1:
            invariants["sign_pattern"] = patterns[0]
        else:
            code, invariants = 1, {}
    return _req("floer", data, {"code": code, "invariants": invariants}, rng)


def _torus4_request(rng, bad):
    w = 0 if bad else rng.randint(1, 63)
    if rng.random() < 0.6:
        triple = rng.randint(0, 1)
        data = {"schema": 1, "three_form": triple}
        det = triple
    else:
        data = {"schema": 1, "preset": "T4"}
        det = 1
    data["w"] = w if rng.random() < 0.5 else [(w >> k) & 1 for k in range(6)]
    expect = {"code": 1} if bad else {"code": 0, "invariants": {"det4": det, "w": w}}
    return _req("torus4", data, expect, rng)


def _circle_bundle_request(rng, bad):
    if bad:
        if rng.random() < 0.5:
            data = {"schema": 1, "knot": _knot_ref(rng.choice(TRIVIAL_ALEXANDER), rng), "euler": rng.choice((-1, 0, 2))}
        else:
            data = {"schema": 1, "knot": _knot_ref(rng.choice(("right_trefoil", "figure_eight")), rng), "euler": 1}
        return _req("circle-bundle", data, {"code": 1}, rng)
    data = {"schema": 1, "knot": _knot_ref(rng.choice(TRIVIAL_ALEXANDER), rng), "euler": 1}
    invariants = {"rho": 0, "furuta_ohta": 0, "arf": 0, "delta_second_derivative": 0}
    return _req("circle-bundle", data, {"code": 0, "invariants": invariants}, rng)


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


# The request mix follows fixtures/, the repository's own example inputs.
# Each fixture stands for REQUESTS_PER_FIXTURE requests of its subcommand,
# so the split is 2:2:3:3:4:2 over knot, sphere, mapping-torus, floer,
# torus4 and circle-bundle.  One in 16 of them is an input meant to exit 1,
# as one of the 16 fixtures (free_nonintegral) does.  Floer requests have
# no such variant; their data alone makes them exit 0, 1 or 2.
REQUESTS_PER_FIXTURE = 64
REFUSED_PER_FIXTURE = 4

REQUEST_MAKERS = {
    "knot": _knot_request,
    "sphere": _sphere_request,
    "mapping-torus": _mapping_torus_request,
    "floer": _floer_request,
    "torus4": _torus4_request,
    "circle-bundle": _circle_bundle_request,
}


def cli_mix(seed: int, golden: dict) -> list[dict]:
    """Seeded CLI requests over the six input subcommands, plus fixtures.

    ``golden`` maps fixture name to its stored exit code and output.
    """
    rng = random.Random(seed)
    jobs = [
        REQUEST_MAKERS[command](rng, k < REFUSED_PER_FIXTURE)
        for command in FIXTURE_COMMANDS.values()
        for k in range(REQUESTS_PER_FIXTURE)
    ]
    for name, command in FIXTURE_COMMANDS.items():
        expected = golden[name]
        jobs.append(
            {
                "kind": "cli",
                "label": f"fixture {name}",
                "args": {"command": command, "format": "json", "fixture": name},
                "expect": {"code": expected["code"], "stdout": expected["stdout"]},
            }
        )
    rng.shuffle(jobs)
    return jobs
