import msvol


def test_every_exported_name_resolves():
    missing = [name for name in msvol.__all__ if not hasattr(msvol, name)]
    assert missing == []
    assert msvol.NUMBA_ENABLED is False
