"""Every exported name resolves, and no removed name is exported."""

import importlib

import pytest

import bridgekac

MODULES = ["backend", "bounds", "cli", "convergence", "feynman_kac", "oracles", "potentials",
           "stochastic"]
# library code that no caller used, removed with the tests that were its only subject
REMOVED = {
    "backend": ["path_positions"],
    "convergence": ["CutoffFunction", "apply_cutoff", "matrix_function"],
    "feynman_kac": ["action_integral", "l2_norm"],
    "stochastic": ["bridge_covariance", "sample_bridge_batch"],
}


@pytest.mark.parametrize("name", ["bridgekac", *MODULES])
def test_every_exported_name_resolves(name):
    module = bridgekac if name == "bridgekac" else importlib.import_module(f"bridgekac.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_stay_removed(name):
    module = importlib.import_module(f"bridgekac.{name}")
    assert [n for n in REMOVED[name] if hasattr(module, n) or hasattr(bridgekac, n)] == []
