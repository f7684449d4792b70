"""The independence tripwire, shared by every test that must not read closed moments."""

import pytest

from kqlab import bergman


class ClosedMomentRead(Exception):
    """A checker asked for a closed fiber moment."""


def _closed_moment(*args):
    raise ClosedMomentRead(f"closed moment read with arguments {args}")


@pytest.fixture
def no_closed_moments(monkeypatch):
    """Make every closed fiber moment, ratio and resummation raise; yields the
    exception type they raise."""
    monkeypatch.setattr(bergman, "_psi0", _closed_moment)
    for key, model in bergman._MODELS.items():
        monkeypatch.setitem(bergman._MODELS, key, model._replace(
            ratio=_closed_moment, rhs=_closed_moment))
    return ClosedMomentRead
