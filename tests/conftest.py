import numpy as np
import pytest


@pytest.fixture
def eig_calls(monkeypatch):
    """A list that gains one entry per call of numpy's Hermitian eigensolvers during the test."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls
