"""The package's public names."""

import thickpoints


def test_every_public_name_resolves():
    missing = [name for name in thickpoints.__all__ if not hasattr(thickpoints, name)]
    assert not missing
    assert len(set(thickpoints.__all__)) == len(thickpoints.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from thickpoints import *", namespace)
    assert set(thickpoints.__all__) <= set(namespace)
