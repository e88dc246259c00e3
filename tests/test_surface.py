"""The public surface: what __all__ and the benchmark tracer name exists."""

import importlib
import importlib.util
from pathlib import Path

import ratsys

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_exported_and_traced_name_resolves():
    assert len(set(ratsys.__all__)) == len(ratsys.__all__)
    for name in ratsys.__all__:
        assert hasattr(ratsys, name), name
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, function in spans.SPANNED + spans.COUNTED:
        target = importlib.import_module(f"ratsys.{module}")
        assert callable(getattr(target, function, None)), f"{module}.{function}"
