import ast
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_bench_span_sites_resolve():
    # The traced benchmark run replaces every (module, attribute) pair in
    # bench/spans.py SITES; a renamed or unused import would break it.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SITES
    for module_name, attribute, _name, _extract in spans.SITES:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            assert hasattr(owner, part), f"{module_name}.{attribute}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attribute}"


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports at top level and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_unused_imports_are_bench_sites():
    # An import nothing reads is dead code unless the traced bench wraps it.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = {(module, attribute) for module, attribute, _name, _extract in spans.SITES}
    package = Path(__file__).resolve().parents[1] / "src" / "bellmax"
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name in sorted(_unused_imports(path)):
            assert (f"bellmax.{path.stem}", name) in sites, f"{path.name}: unused import {name}"
