import dirlap


def test_every_public_name_resolves():
    # `from dirlap import *` fails on a name listed in __all__ but not imported
    missing = [name for name in dirlap.__all__ if not hasattr(dirlap, name)]
    assert missing == []
    assert len(set(dirlap.__all__)) == len(dirlap.__all__)
    namespace = {}
    exec("from dirlap import *", namespace)
    assert set(dirlap.__all__) <= set(namespace)
