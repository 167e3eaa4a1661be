"""The demos reference only `rqi` names and keyword arguments that exist.

Tier-1 does not run the demos (together they take about 20 s), so a deleted
function, class, constant or keyword would otherwise break them silently.
This parses each demo with `ast` and resolves what it uses without running it.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def rqi_uses(tree):
    """(module, attribute, keyword names) for each `rqi` attribute the code touches."""
    aliases = {}  # local name -> rqi module name
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "rqi":
            for alias in node.names:
                if node.module == "rqi":
                    aliases[alias.asname or alias.name] = "rqi." + alias.name
                else:
                    uses.append((node.module, alias.name, ()))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rqi.") and alias.asname:
                    aliases[alias.asname] = alias.name
    keywords = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            keywords[id(node.func)] = tuple(k.arg for k in node.keywords if k.arg is not None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            uses.append((aliases[node.value.id], node.attr, keywords.get(id(node), ())))
    return uses


def missing_references(source):
    """Problems with the `rqi` names and keywords a source text uses; empty when all resolve."""
    uses = rqi_uses(ast.parse(source))
    if not uses:
        return ["uses no rqi name"]
    problems = []
    for module, attr, kwargs in uses:
        obj = getattr(importlib.import_module(module), attr, None)
        if obj is None:
            problems.append(f"{module}.{attr} does not exist")
        elif kwargs:
            params = inspect.signature(obj).parameters
            problems += [f"{module}.{attr} takes no keyword {k!r}" for k in kwargs if k not in params]
    return problems


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_references_exist(demo):
    assert missing_references(demo.read_text(encoding="utf-8")) == []


def test_checker_reports_missing_names_and_keywords():
    source = (
        "from rqi import boxpair, udw\n"
        "boxpair.no_such_function(s)\n"
        "udw.wavepacket_overlap(p, f, 0.0, n_grid=11, no_such_keyword=3.0)\n"
    )
    assert missing_references(source) == [
        "rqi.boxpair.no_such_function does not exist",
        "rqi.udw.wavepacket_overlap takes no keyword 'no_such_keyword'",
    ]
