"""The sites perfbench's tracer wraps still exist, each as the kind it is wrapped as.

A renamed or reshaped site is only recorded as missing by the tracer, which
then reports its per-layer metrics as null; this test fails instead.  The
tracer's TARGETS list is read from its source, without importing it.
"""

import ast
import importlib
import inspect
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Import sites of expand_category the tracer still lists; neither module
# imports it any more.
KNOWN_MISSING = {"typelink.linker.expand_category", "typelink.cli.expand_category"}

KINDS = {
    "func": lambda raw: inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw),
    "generator": inspect.isgeneratorfunction,
    "classmethod": lambda raw: isinstance(raw, classmethod),
}


def tracer_targets() -> list[tuple[str, str, str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)]
    return ast.literal_eval(value)


def resolve(module_name: str, attr_path: str):
    """The object at the site, looked up as the tracer does (a class's own dict
    for a method, so a classmethod stays one)."""
    owner = importlib.import_module(module_name)
    *owner_path, attr = attr_path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_traced_site_resolves_to_its_kind():
    missing = set()
    for _, module_name, attr_path, kind in tracer_targets():
        site = f"{module_name}.{attr_path}"
        try:
            raw = resolve(module_name, attr_path)
        except (ImportError, AttributeError, KeyError):
            missing.add(site)
            continue
        assert KINDS[kind](raw), f"{site} is not a {kind}"
    assert missing <= KNOWN_MISSING

