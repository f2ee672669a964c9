import bifurcate


def test_public_names_resolve():
    assert [name for name in bifurcate.__all__ if not hasattr(bifurcate, name)] == []
