import pytest

from andor import extraction


@pytest.fixture
def huber_max_iters(monkeypatch):
    """Call with a count to cap the Huber continuation's stages at it for one
    test, which keeps a Huber solve short; the LP path ignores the cap."""
    def cap(iters):
        monkeypatch.setattr(extraction, "HUBER_MAX_ITERS", iters)
    return cap
