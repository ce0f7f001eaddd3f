"""The package's public names."""

import qhedge


def test_every_public_name_resolves_once():
    """Each name in ``__all__`` is listed once and resolves on the package,
    so a deleted function cannot linger in the public list."""
    names = qhedge.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(qhedge, n)] == []
