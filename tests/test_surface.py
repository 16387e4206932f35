"""The package surface that the benchmark harness in `perfbench/` reads.

`perfbench/` imports qcheque from outside and looks functions up by name,
so a rename or a removal there would only show as a broken benchmark
run.  These tests load the harness's own tables and imports and check
that every name still resolves.
"""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import qcheque
from qcheque import protocol
from qcheque.protocol import Bank, SchemeParams, VerifyResult
from qcheque.sim import World

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_exports_only_what_the_harness_and_cli_use():
    assert sorted(qcheque.__all__) == sorted(
        ["__version__", "Bank", "SchemeParams", "run_attack", "run_honest"]
    )
    for name in qcheque.__all__:
        assert hasattr(qcheque, name), name


def test_every_traced_function_resolves_as_the_tracer_looks_it_up():
    tracer = _load_tracer()
    assert tracer.TRACED
    for span, module_name, owner, function in tracer.TRACED:
        module = getattr(qcheque, module_name)
        if owner is None:
            assert callable(getattr(module, function, None)), span
        else:
            assert function in getattr(module, owner).__dict__, span


def _parameters(fn):
    return [(p.name, p.kind, p.default is p.empty) for p in inspect.signature(fn).parameters.values()]


def test_every_traced_target_reader_binds_as_its_method_does():
    # the tracer calls each reader with the arguments of the simulator
    # call, keywords included, so it must take the method's parameters
    tracer = _load_tracer()
    assert tracer._SIM_TARGETS
    for method, targets_of in tracer._SIM_TARGETS.items():
        assert _parameters(targets_of) == _parameters(World.__dict__[method]), method


def test_every_name_perfbench_imports_from_the_package_exists():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qcheque"):
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert ("run.py", "qcheque", "run_honest") in imported
    for source, module_name, name in imported:
        module = importlib.import_module(module_name)
        assert hasattr(module, name), (source, module_name, name)


def test_deposit_fields_the_benchmark_reads_exist():
    assert "spent_ledger_check" in Bank.__dict__
    fields = {f.name for f in dataclasses.fields(VerifyResult)}
    assert {"accepted", "auth_passed"} <= fields


def test_tracing_a_run_changes_no_result():
    tracer_module = _load_tracer()
    params = SchemeParams(ghz_triples=2, auth_qubits=2, key_bits=64, serial_bits=64)
    plain = qcheque.run_honest(params, trials=2, seed=3).to_json()
    verify, swap_test = Bank.__dict__["verify_cheque"], protocol.swap_test
    tracer = tracer_module.Tracer()
    with tracer.installed():
        assert protocol.swap_test is not swap_test
        traced = qcheque.run_honest(params, trials=2, seed=3).to_json()
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"protocol.verify_cheque", "swaptest.swap_test.w1", "swaptest.swap_test.w2"} <= names
    # leaving the context puts every original back
    assert Bank.__dict__["verify_cheque"] is verify
    assert protocol.swap_test is swap_test
