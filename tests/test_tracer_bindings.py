"""The benchmark's tracer binds package names: a rename must fail here."""

from pathlib import Path

from yule_ou import sde

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    # perfbench/tracer.py wraps bindings by name (sde.stream, sde.ar1_paths,
    # mc._cell_blocks, hypothesis.rho_test, ...); install raises
    # AttributeError if a refactor renames one of them
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import Tracer

    stream = sde.stream
    tracer = Tracer("bindings")
    tracer.install()
    try:
        saved = list(tracer._saved)
        assert sde.stream is not stream
        assert all(getattr(module, attr) is not original for module, attr, original in saved)
    finally:
        tracer.uninstall()
    assert sde.stream is stream
    assert all(getattr(module, attr) is original for module, attr, original in saved)
