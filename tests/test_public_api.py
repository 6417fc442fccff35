"""`bpfusion.__all__` is a written list of the package's functions and
classes: every name resolves, none is a submodule, and it names each
public object the package imports exactly once."""
import types

import bpfusion


def test_every_exported_name_resolves_to_a_function_or_class():
    for name in bpfusion.__all__:
        assert not isinstance(getattr(bpfusion, name), types.ModuleType), name


def test_the_list_names_each_imported_object_once():
    imported = {name for name, value in vars(bpfusion).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(bpfusion.__all__) == sorted(imported)
