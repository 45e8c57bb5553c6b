import numpy as np
import pytest
from hypothesis import settings

from bregmanprox import numerics

# Tier-1 is a gate: every run draws the same examples, and no example
# database carries state from one run to the next.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.fixture
def refine_brackets(monkeypatch):
    """The number of brackets of each ``numerics.refine`` call the test makes."""
    brackets = []
    real = numerics.refine

    def counted(phi, a, b, rows=None):
        brackets.append(np.size(a))
        return real(phi, a, b, rows)

    monkeypatch.setattr(numerics, "refine", counted)
    return brackets
