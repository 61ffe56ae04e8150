"""The bench's trace hooks against the library they rebind.

``bench/spans.py`` wraps library functions by name: the ``LAYERS`` table,
and ``CASCADES`` with a ``(spec, a, m)`` wrapper.  A rename or a new
signature in the library would break ``bench/run.py --trace 1`` without
any other test failing, so this file loads the hooks as the bench does
and runs two commands under them."""

import importlib.util
import inspect
from pathlib import Path

from hyperwave import cli, transform1d


def load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cascade_hooks_take_spec_array_level():
    for name in load_spans().CASCADES:
        params = inspect.signature(getattr(transform1d, name)).parameters.values()
        assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 3


def test_commands_record_spans(tmp_path, monkeypatch, capsys):
    spans = load_spans()
    originals = {name: getattr(transform1d, name) for name in spans.CASCADES}
    recorder = spans.Recorder()
    hooks = spans.Instrumentation(recorder)
    monkeypatch.chdir(tmp_path)
    hooks.install()
    try:
        assert cli.main(["transform", "--generate", "random_decay", "--jmax", "4",
                         "--out", "u.coeffs"]) == 0
        assert cli.main(["nterm", "--coeffs", "u.coeffs", "--nmax", "64",
                         "--out", "curve.csv"]) == 0
    finally:
        hooks.remove()
    names = {s.name for s in recorder.spans}
    assert {"testfunctions.sample_function", "tensorbasis.hyper_forward",
            "tensorbasis.save_coeffs", "tensorbasis.load_coeffs",
            "nterm.error_curve", "nterm.fit_rate"} <= names
    assert recorder.counts["tensorbasis.file_bytes"] > 0
    assert {name: getattr(transform1d, name) for name in spans.CASCADES} == originals
