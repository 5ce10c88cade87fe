import types

import viewplan


def test_all_lists_every_public_name():
    public = {name for name, value in vars(viewplan).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(viewplan.__all__)
    assert len(viewplan.__all__) == len(set(viewplan.__all__))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from viewplan import *", namespace)
    assert all(name in namespace for name in viewplan.__all__)
    assert namespace["ViewPoint"] is viewplan.ViewPoint
