import pytest

from mzf import channel, intsearch


@pytest.fixture
def fresh_reduction_memo(monkeypatch):
    """Empty the last-reduction memo, so a test sees the reductions of its
    own fits only."""
    monkeypatch.setattr(intsearch, "_last_reduction", None)


@pytest.fixture
def fresh_pseudo_inverse_memo(monkeypatch):
    """Empty the last-channel pseudo-inverse memo, so a test sees the
    pseudo-inverses of its own channels only."""
    monkeypatch.setattr(channel, "_last_pseudo_inverse", None)
