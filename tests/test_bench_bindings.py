"""The benchmark under perfbench/ runs against this package.

perfbench reaches into the package by name: spans.py wraps its layer
boundaries and tensor ops, and run.py drives its training and gradient
check. A change that drops or renames one of those names breaks the
benchmark; these tests fail first. They only read perfbench/.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import mtpretrain
from mtpretrain import (cli, corpus, losses, model, scheduler,  # noqa: F401
                        taskbuild, tensor, tokenizer, trainer)

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_binding_and_uninstalls():
    spans = load_spans()
    before = {(mod, attr): getattr(getattr(mtpretrain, mod), attr)
              for mod, attr, _ in spans.FUNCTION_SPANS}
    tracer = spans.Tracer()
    try:
        # raises AttributeError naming the first binding that is gone
        spans.install(tracer, mtpretrain)
        assert all(getattr(getattr(mtpretrain, mod), attr) is not fn
                   for (mod, attr), fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(getattr(mtpretrain, mod), attr) is fn
               for (mod, attr), fn in before.items())


@pytest.mark.parametrize("workload", ["so-pretrain", "token-mix",
                                      "gradcheck-15"])
def test_quick_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--quick", "--seconds", "0.1", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


@pytest.mark.parametrize("workload", ["so-pretrain", "token-mix",
                                      "gradcheck-15"])
def test_traced_quick_run_walks_the_tape(workload):
    # the traced run walks the graph from each loss through the tensor's
    # and its nodes' attributes, which no untraced run reads; on
    # gradcheck-15 that is the analytic pass's graph, made before the
    # check detaches the parameters' nodes
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload",
         workload, "--quick", "--seconds", "0.1", "--seed", "3",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["correct"] is True
    assert record["metrics"]["tensor.tape_nodes"]["value"] > 0
