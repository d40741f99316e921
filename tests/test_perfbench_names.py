"""The benchmark's traced run replaces wasef functions by name
(perfbench/tracing.py). Renaming or removing one breaks that run, so tier-1
wraps every name once and puts each original back."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_the_benchmark_traces_exists_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing into perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    tracer = tracing.Tracer()
    try:
        tracing.trace_pipeline(tracer)
        patches = list(tracer._patches)
    finally:
        tracer.restore()
    wrapped = {f"{owner.__name__}.{attr}" for owner, attr, _ in patches}
    assert {
        "wasef.similarity.structural_similarity",
        "wasef.similarity.functional_similarity_graphs",
        *(f"wasef.jsscan.{name}" for name in tracing.JSSCAN_FUNCTIONS),
    } <= wrapped
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} was not restored"
