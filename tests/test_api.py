import casson4


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from casson4 import *", namespace)
    for name in casson4.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(casson4, name)


def test_no_src_module_imports_mpmath():
    # the cosine table is integer arithmetic: mpmath is a test oracle only
    import ast
    from pathlib import Path

    importers = set()
    for path in Path(casson4.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "mpmath" for name in names):
                importers.add(path.name)
    assert importers == set()


def test_import_leaves_mpmath_unloaded():
    import subprocess
    import sys

    code = "import sys, casson4, casson4.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_runtime_paths_leave_the_field_unloaded():
    # Q(zeta_n) is the tests' elimination oracle: importing casson4, a
    # spectrum, a signature at order 997 and every fixture request run
    # without loading it
    import json
    import random
    import subprocess
    import sys

    from helpers import congruent, random_unimodular
    from test_golden import FIXTURE_COMMANDS, ROOT, _expected

    knot = congruent(casson4.torus_knot_seifert(3, 5), random_unimodular(random.Random(3), 8))
    argvs = [
        [command, "--input", str(ROOT / "fixtures" / f"{case}.json")]
        for case, command in FIXTURE_COMMANDS.items()
    ]
    code = """
import contextlib, io, json, sys
import casson4, casson4.cli
entries, argvs = json.load(sys.stdin)
total = casson4.signature_spectrum(casson4.SeifertMatrix(entries), 61).total()
unknot = casson4.tl_signature(casson4.preset_knot("unknot"), "1/997")
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [casson4.cli.main(argv) for argv in argvs]
print(json.dumps([total, unknot, codes, "casson4.cyclotomic" in sys.modules]))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        input=json.dumps([knot.entries, argvs]),
        capture_output=True,
        text=True,
        check=True,
    )
    total, unknot, codes, loaded = json.loads(out.stdout)
    assert (total, unknot) == (-256, 0)
    assert codes == [_expected(case, "json")[0] for case in FIXTURE_COMMANDS]
    assert loaded is False


def test_every_cache_keyed_by_caller_input_is_bounded():
    # only caches whose keys the code fixes may grow without a bound
    from helpers import package_caches

    unbounded = {
        name for name, fn in package_caches().items() if fn.cache_parameters()["maxsize"] is None
    }
    assert unbounded == {"casson4.cli._validator", "casson4.cli.build_parser"}


def test_cache_table_is_pinned():
    # adding, removing or resizing a cache is a decision this table records
    from helpers import package_caches

    assert {name: fn.cache_parameters()["maxsize"] for name, fn in package_caches().items()} == {
        "casson4.seifert._alexander_cached": 1024,
        "casson4.seifert._arf_cached": 1024,
        "casson4.seifert._gram_factor": 1024,
        "casson4.seifert._row_squares": 1024,
        "casson4.seifert._root_of_unity": 1024,
        "casson4.seifert._tl_orbit_cached": 1024,
        "casson4.inertia._proth_prime": 1024,
        "casson4.cyclotomic.cyclotomic_polynomial": 1024,
        "casson4.inertia.fixed_point_cosines": 256,
        "casson4.cli._strict_integers": 8,
        "casson4.cli._validator": None,
        "casson4.cli.build_parser": None,
    }


# public names that nothing in src/ or bench/ calls, each with why it stays
UNCALLED_EXPORTS = {
    "tl_nullity": "the nullity beside tl_signature: the Tristram-Levine pair of the paper",
    "connected_sum": "builds composite knots such as the granny and square knots",
    "seifert_tau_floer_data": "the paper's involution pattern on a Seifert-fibred sphere",
    "det3": "the determinant of a homology 3-torus, which det4 of its product ring equals",
    "rho_bar": "the paper's spin-Rohlin aggregate of a homology 4-torus, with no second route",
}


def _callers() -> set[str]:
    """Names referenced by a src module other than __init__, or named by bench/."""
    import ast
    from pathlib import Path

    src = Path(casson4.__file__).parent
    modules = {path.stem for path in src.glob("*.py")}
    named = set()
    for path in src.glob("*.py"):
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                named |= {alias.name for alias in node.names}
    for path in (src.parent.parent / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "casson4":
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "casson4":
                named |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a traced "module.name[.attr]" string
                module, _, rest = node.value.partition(".")
                if module in modules and rest:
                    named.add(rest.split(".")[0])
    return named


def test_every_public_name_has_a_caller_or_a_reason():
    callers = _callers()
    exported = set(casson4.__all__) - {"__version__"}
    assert sorted(exported - callers - set(UNCALLED_EXPORTS)) == []
    # a listed name that gains a caller leaves the list
    assert sorted(set(UNCALLED_EXPORTS) & callers) == []
    assert set(UNCALLED_EXPORTS) <= exported


# public methods of exported classes that nothing in src/ or bench/ calls,
# each with why it stays
UNCALLED_METHODS: dict[str, str] = {}


def _public_methods() -> set[str]:
    """Class.member for every public function or property in an exported class's body."""
    import inspect

    return {
        f"{name}.{member}"
        for name in casson4.__all__
        if inspect.isclass(cls := getattr(casson4, name))
        for member, value in vars(cls).items()
        if not member.startswith("_")
        and (callable(value) or isinstance(value, (property, classmethod, staticmethod)))
    }


def test_every_public_method_has_a_caller_or_a_reason():
    # a method is called when a src module other than __init__, or a bench/
    # file, names it as an attribute, x.member.  The match is by name alone,
    # so members that share a name hide each other: a caller of
    # FreeQuotientData.reversed_orientation also counts for any other
    # class's reversed_orientation, and result.congruent, which reads the
    # field SphereInvariants.congruent, counted for a SeifertMatrix.congruent
    import ast
    from pathlib import Path

    src = Path(casson4.__file__).parent
    paths = [path for path in src.glob("*.py") if path.stem != "__init__"]
    paths += (src.parent.parent / "bench").glob("*.py")
    attributes = {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    uncalled = {method for method in _public_methods() if method.split(".")[1] not in attributes}
    assert sorted(uncalled - set(UNCALLED_METHODS)) == []
    # a listed method that gains a caller leaves the list
    assert sorted(set(UNCALLED_METHODS) - uncalled) == []
