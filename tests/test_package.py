import inspect

import ghost_turb


def test_all_lists_exactly_the_public_names_the_package_binds():
    bound = {name for name, value in vars(ghost_turb).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(ghost_turb.__all__) == len(set(ghost_turb.__all__))
    assert set(ghost_turb.__all__) == bound | {"__version__"}
    namespace = {}
    exec("from ghost_turb import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ghost_turb.__all__)
