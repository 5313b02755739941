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
