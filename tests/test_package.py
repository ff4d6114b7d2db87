"""The package's public name list."""

import ehzcap


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ehzcap import *", namespace)
    assert set(ehzcap.__all__) <= set(namespace)


def test_every_public_name_resolves_and_appears_once():
    assert len(ehzcap.__all__) == len(set(ehzcap.__all__))
    for name in ehzcap.__all__:
        assert hasattr(ehzcap, name), name
