import numpy as np
import pytest
from hypothesis import settings

from bregmanprox import numerics

# Tier-1 is a gate: every run draws the same examples, and no example
# database carries state from one run to the next.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.fixture
def zoom_brackets(monkeypatch):
    """The number of brackets of each ``numerics.zoom`` call the test makes:
    every bracket search goes through it (``refine``, hence ``grid_minimize``
    and the certificates, and ``grid_min_value``, hence ``grid_conjugate``)."""
    brackets = []
    real = numerics.zoom

    def counted(phi, a, b, rows=None):
        brackets.append(np.size(a))
        return real(phi, a, b, rows)

    monkeypatch.setattr(numerics, "zoom", counted)
    return brackets


@pytest.fixture
def results_built(monkeypatch):
    """The rows the test reads as objects: the number of minimizers of each
    ``numerics.ProxResult`` built, and the count of ``MinimizerCluster``s
    built, under ``"clusters"``."""
    built = {"results": [], "clusters": 0}
    real_result, real_cluster = numerics.ProxResult.__init__, numerics.MinimizerCluster.__init__

    def result(self, value, clusters):
        built["results"].append(len(clusters))
        real_result(self, value, clusters)

    def cluster(self, *args):
        built["clusters"] += 1
        real_cluster(self, *args)

    monkeypatch.setattr(numerics.ProxResult, "__init__", result)
    monkeypatch.setattr(numerics.MinimizerCluster, "__init__", cluster)
    return built
