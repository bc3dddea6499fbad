import pytest

from mzf import intsearch


@pytest.fixture
def fresh_reduction_memo(monkeypatch):
    """Empty the last-reduction memo, so a test sees the reductions of its
    own fits only."""
    monkeypatch.setattr(intsearch, "_last_reduction", None)
