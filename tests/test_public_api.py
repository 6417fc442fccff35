"""`bpfusion.__all__` is a written list of the package's functions and
classes: every name resolves, none is a submodule, it names each public
object the package imports exactly once, and the README's "Public API"
section lists it, name for name, under the module that defines each."""
import importlib
import re
import types
from pathlib import Path

import bpfusion


def test_every_exported_name_resolves_to_a_function_or_class():
    for name in bpfusion.__all__:
        assert not isinstance(getattr(bpfusion, name), types.ModuleType), name


def test_the_list_names_each_imported_object_once():
    imported = {name for name, value in vars(bpfusion).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(bpfusion.__all__) == sorted(imported)


def _readme_api() -> list[tuple[str, list[str]]]:
    """The README's "Public API" list: (module, names) per bullet."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    out = []
    for bullet in re.findall(r"^- (.*(?:\n  .*)*)", section, re.M):
        module, _, names = bullet.partition(":")
        out.append((module.strip("`"), re.findall(r"`(\w+)`", names)))
    return out


def test_the_readme_lists_every_exported_name_in_order():
    listed = _readme_api()
    assert [name for _, names in listed for name in names] == bpfusion.__all__
    for module, names in listed:
        defined = importlib.import_module(module)
        for name in names:
            assert getattr(defined, name) is getattr(bpfusion, name), (module, name)
