"""`bpfusion.__all__` is a written list of the package's functions and
classes: every name resolves, none is a submodule, it names each public
object the package imports exactly once, and the README's "Public API"
section lists it, name for name, under the module that defines each.

`src/` holds only what the library reaches: every unexported top-level
function or class and every non-dunder method is named somewhere in
`src/`, but for the few kept for callers outside it (`KEPT`), and the
README names the exported ones that `src/` never calls."""
import ast
import importlib
import re
import types
from pathlib import Path

import bpfusion

ROOT = Path(__file__).resolve().parents[1]

# unexported names with no caller in src/, each kept for one outside it
KEPT = {
    "fuse_sums",  # fuse on formal sums: the associativity property test calls it
    "w3_fusion_with_label",  # a name perfbench's tracer wraps
    "w3_verlinde",  # a name perfbench's tracer wraps; its warm-up calls it
}


def _unreached() -> set[str]:
    """The top-level functions and classes of `src/`, and the non-dunder
    methods (as Class.method), whose name no `ast.Name` or `ast.Attribute`
    in `src/` mentions.  An import is no mention: the names that only
    `__init__` imports are the exported ones with no caller."""
    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "bpfusion").glob("*.py"))]
    named = {n.id if isinstance(n, ast.Name) else n.attr
             for tree in trees for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    unreached = set()
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named:
            unreached.add(node.name)
        if isinstance(node, ast.ClassDef):
            unreached |= {f"{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef) and m.name not in named
                          and not (m.name.startswith("__") and m.name.endswith("__"))}
    return unreached


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


def test_src_reaches_every_unexported_definition():
    assert _unreached() - set(bpfusion.__all__) == KEPT


def test_the_readme_names_the_exported_names_src_never_calls():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.search(r"called nowhere inside `src/` \((.*?)\)", section, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", listed)) == _unreached() & set(bpfusion.__all__)
