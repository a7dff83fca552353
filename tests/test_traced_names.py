"""The benchmark's tracer (perfbench/tracer.py) patches package functions
and methods by name.  Every name it lists must resolve, the way
``Tracer.install`` resolves it, or a traced benchmark run fails at install.
The tracer's source is read as text and parsed, never imported or edited.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans():
    """The tracer's SPANS tuple: (module, attribute path, span name)."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["SPANS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS assignment in {TRACER}")


SPANS = _spans()


def test_spans_listed():
    assert SPANS and all(len(span) == 3 for span in SPANS)


@pytest.mark.parametrize("modname,path", [span[:2] for span in SPANS],
                         ids=[f"{m}:{p}" for m, p, _ in SPANS])
def test_traced_name_resolves(modname, path):
    # the attribute lookup of Tracer.install: getattr down to the owner,
    # then the owner's own namespace, so an inherited name does not count
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{modname}.{path} is gone"
    assert callable(vars(owner)[attr])
