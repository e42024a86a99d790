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

    from helpers import random_unimodular
    from test_golden import FIXTURE_COMMANDS, ROOT, _expected

    knot = casson4.torus_knot_seifert(3, 5).congruent(random_unimodular(random.Random(3), 8))
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
