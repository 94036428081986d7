"""Fixtures shared by several test modules."""

import pytest

from cylpc import coeff_codec


def _unchecked_nonzeros(values):
    """The encoder's gate in pure Python, with no int64 check."""
    values = list(values)
    where = [i for i, v in enumerate(values) if v]
    return len(values), where, [values[i] for i in where]


@pytest.fixture
def unchecked_rlgr_encode(monkeypatch):
    """rlgr_encode without its int64 gate: writes the escaped magnitudes
    that only a corrupt or hostile stream holds."""

    def encode(values):
        with monkeypatch.context() as m:
            m.setattr(coeff_codec, "_nonzeros", _unchecked_nonzeros)
            return coeff_codec.rlgr_encode(values)

    return encode
