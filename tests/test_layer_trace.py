"""The benchmark's layer trace (perfbench/layers.py) rebinds public hupa
names; these tests fail when a refactor removes or renames one of them."""

import importlib
from pathlib import Path

import hupa.variance
from hupa import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_layer_trace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers").LayerTrace()


def test_install_and_uninstall(monkeypatch):
    original = hupa.variance.window_counts
    trace = load_layer_trace(monkeypatch)
    try:
        trace.install()
        assert hupa.variance.window_counts is not original
    finally:
        trace.uninstall()
    assert hupa.variance.window_counts is original


def test_variance_run_is_traced(monkeypatch, capsys, tmp_path):
    pat = str(tmp_path / "p.pat")
    assert cli.main(["generate", "poisson", "--box", "16x16", "--rho", "2",
                     "-o", pat]) == 0
    trace = load_layer_trace(monkeypatch)
    try:
        trace.install()
        assert cli.main(["variance", pat, "--windows", "200",
                         "-o", str(tmp_path / "v")]) == 0
    finally:
        trace.uninstall()
    capsys.readouterr()
    # one window_counts call per radius of the default sweep
    assert trace.counts["variance.window_counts_calls"] == 16
    assert trace.counts["variance.windows_evaluated"] == 16 * 200
    assert trace.inclusive["variance.default_radii"] > 0
