"""Every name in `rdmdelay.__all__` resolves, so deleting an export cannot
leave a dangling name behind."""

import rdmdelay


def test_every_exported_name_resolves():
    assert [name for name in rdmdelay.__all__ if not hasattr(rdmdelay, name)] == []
    assert len(set(rdmdelay.__all__)) == len(rdmdelay.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from rdmdelay import *", namespace)
    assert set(rdmdelay.__all__) <= namespace.keys()
