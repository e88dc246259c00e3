"""The public surface: what __all__ and the benchmark tracer name exists,
and what importing the package loads."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import ratsys

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src"


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
    # the tracer counts coefficient sets through this validation hook
    assert callable(getattr(ratsys.PeriodicCoefficients, "__post_init__", None))


def test_cold_start_loads_no_dataclasses_inspect_or_json():
    code = ("import sys, ratsys, ratsys.cli; ratsys.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, check=True)
    assert proc.stdout == "[]\n"
