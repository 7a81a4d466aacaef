"""The package namespace."""

import types

import aqlam


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(aqlam.__all__)) == len(aqlam.__all__)
    for name in aqlam.__all__:
        assert not isinstance(getattr(aqlam, name), types.ModuleType), name
