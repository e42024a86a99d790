import casson4


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from casson4 import *", namespace)
    for name in casson4.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(casson4, name)


def test_only_cyclotomic_imports_mpmath():
    # one cosine table, one interval context: no other module reaches mpmath
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
    assert importers == {"cyclotomic.py"}


def test_every_cache_keyed_by_caller_input_is_bounded():
    # only caches whose keys the code fixes may grow without a bound
    import importlib
    import pkgutil

    unbounded = set()
    for info in pkgutil.iter_modules(casson4.__path__):
        module = importlib.import_module(f"casson4.{info.name}")
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else [value]
            for fn in members:
                parameters = getattr(fn, "cache_parameters", None)
                if parameters and parameters()["maxsize"] is None:
                    unbounded.add(f"{fn.__module__}.{fn.__qualname__}")
    assert unbounded == {"casson4.cli._validator", "casson4.cli.build_parser"}
