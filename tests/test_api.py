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


def test_every_cache_keyed_by_caller_input_is_bounded():
    # only caches whose keys the code fixes may grow without a bound
    from helpers import package_caches

    unbounded = {
        name for name, fn in package_caches().items() if fn.cache_parameters()["maxsize"] is None
    }
    assert unbounded == {"casson4.cli._validator", "casson4.cli.build_parser"}
