"""The benchmark's tracer (perfbench/tracer.py) still fits the package.

A traced benchmark run wraps the package's public functions by name and
reports per-layer figures under BENCHMARK.json's per_layer names.  A change
that removes or moves a name the tracer binds would crash or blank such a
run; these tests fail first.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from ulrichci import cli
from ulrichci.polyring import MultiPoly
from ulrichci.report import CheckResult

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(modules) -> dict:
    """Every binding the tracer may replace: module attributes, ring ops, CheckResult.__init__."""
    for short in modules:
        importlib.import_module(f"ulrichci.{short}")
    found = {
        (name, attr): obj
        for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "ulrichci"
        for attr, obj in vars(module).items()
    }
    found.update({("MultiPoly", attr): obj for attr, obj in vars(MultiPoly).items()})
    found["CheckResult", "__init__"] = CheckResult.__init__
    return found


def test_tracer_traces_a_command_and_restores_every_binding():
    tracer_module = _load_tracer()
    before = _bindings(tracer_module.MODULES)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["certify", "--n", "4", "--degrees", "3", "--r", "2"])
    finally:
        tracer.uninstall()
    after = _bindings(tracer_module.MODULES)
    assert code == 0
    layers = tracer.layer_table()
    assert layers["cli.main"]["calls"] == 1
    assert layers["ci_invariants.certify"]["calls"] == 1
    assert [key for key, obj in before.items() if after[key] is not obj] == []
    # A binding that appeared during the run (the lazily imported pool class)
    # is not left wrapped either.
    assert [
        key for key, obj in after.items() if getattr(obj, "__qualname__", "").startswith("Tracer.")
    ] == []


def test_per_layer_function_names_exist_in_their_modules():
    tracer_module = _load_tracer()
    poly_ops = set(tracer_module.POLY_OPS.values())
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    checked, missing = [], []
    for entry in per_layer:
        module, function = entry["name"].split(".")[:2]
        if module not in tracer_module.MODULES or module == "report":
            continue
        if (module == "polyring" and function in poly_ops) or (module, function) == (
            "ulrich_functions",
            "scan",
        ):
            continue
        home = importlib.import_module(f"ulrichci.{module}")
        obj = getattr(home, function, None)
        checked.append(f"{module}.{function}")
        if getattr(obj, "__module__", None) != home.__name__:
            missing.append(f"{module}.{function}")
    assert len(checked) > 30
    assert missing == []
