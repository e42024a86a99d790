import ast
import importlib
import importlib.util
from pathlib import Path

# traced names whose code has already left src/; shrink this as the
# benchmark's layer tables drop them, and never grow it
ALREADY_MISSING = {"cyclotomic.CycElt.real_enclosure", "inertia.certified_sign"}


def _layers_module():
    path = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(target: str) -> bool:
    """Whether "module.attr[.attr]" names an attribute under casson4."""
    module, _, path = target.partition(".")
    owner = importlib.import_module(f"casson4.{module}")
    for part in path.split("."):
        if part not in vars(owner):
            return False
        owner = vars(owner)[part]
    return True


def test_every_traced_name_resolves():
    # a rename in src/ must not silently leave a layer of `--trace 1` untraced
    layers = _layers_module()
    tables = (layers.SPAN_LAYERS, layers.LEAF_LAYERS)
    targets = [t for table in tables for names in table.values() for t in names]
    assert "seifert.integer_determinant" in targets
    missing = {t for t in targets if not _resolves(t)}
    assert missing <= ALREADY_MISSING, sorted(missing - ALREADY_MISSING)


def _imported_modules(tree) -> set[str]:
    """The casson4 modules, by stem, that a parsed src module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "casson4" + (f".{node.module}" if node.module else "")
            module = package if node.level else node.module or ""
            # from . import x, or from casson4 import x: x may be a module
            names = [f"{module}.{alias.name}" for alias in node.names] + [module]
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("casson4.")}
    return found


def test_only_the_cli_and_the_test_field_are_unimported_src_modules():
    # every src module but the CLI is reached from the package; the one
    # exception, the tests' cyclotomic field, leaves src/ with the tracer's import
    import casson4

    paths = {p.stem: p for p in Path(casson4.__file__).parent.glob("*.py")}
    modules = set(paths) - {"__init__"}
    imported = set()
    for name, path in paths.items():
        imported |= _imported_modules(ast.parse(path.read_text())) - {name}
    assert modules - imported == {"cli", "cyclotomic"}
