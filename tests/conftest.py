"""Fixtures shared by several test modules."""

import pytest

from cylpc import coeff_codec


@pytest.fixture
def unchecked_rlgr_encode(monkeypatch):
    """rlgr_encode without its int64 check: writes the escaped magnitudes
    that only a corrupt or hostile stream holds."""

    def encode(values):
        with monkeypatch.context() as m:
            for name in ("_ZIGZAG_MAX", "_POS_MAX", "_NEG_MAX"):
                m.setattr(coeff_codec, name, 1 << 255)
            return coeff_codec.rlgr_encode(values)

    return encode
