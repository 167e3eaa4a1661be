"""The demos reference only `rqi` names and keyword arguments that exist, and call them with a fitting arity.

Tier-1 does not run the demos (together they take about 20 s), so a deleted
function, class, constant or keyword, or a changed signature, would otherwise
break them silently.  This parses each demo with `ast`, resolves what it uses
and binds each call's arguments to the signature, without running it.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def rqi_uses(tree):
    """(module, attribute, call) for each `rqi` attribute the code touches.

    call is None for a bare reference and for a call with * or ** unpacking,
    else (number of positional arguments, keyword names).
    """
    aliases = {}  # local name -> rqi module name
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "rqi":
            for alias in node.names:
                if node.module == "rqi":
                    aliases[alias.asname or alias.name] = "rqi." + alias.name
                else:
                    uses.append((node.module, alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rqi.") and alias.asname:
                    aliases[alias.asname] = alias.name
    calls = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            keywords = tuple(k.arg for k in node.keywords)
            unpacked = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            calls[id(node.func)] = None if unpacked else (len(node.args), keywords)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            uses.append((aliases[node.value.id], node.attr, calls.get(id(node))))
    return uses


def missing_references(source):
    """Problems with the `rqi` names, keywords and call arities a source text uses; empty when all resolve."""
    uses = rqi_uses(ast.parse(source))
    if not uses:
        return ["uses no rqi name"]
    problems = []
    for module, attr, call in uses:
        obj = getattr(importlib.import_module(module), attr, None)
        if obj is None:
            problems.append(f"{module}.{attr} does not exist")
        elif call is not None:
            n_args, kwargs = call
            signature = inspect.signature(obj)
            unknown = [k for k in kwargs if k not in signature.parameters]
            problems += [f"{module}.{attr} takes no keyword {k!r}" for k in unknown]
            try:
                if not unknown:
                    signature.bind(*range(n_args), **dict.fromkeys(kwargs))
            except TypeError as exc:
                problems.append(f"{module}.{attr}: {exc}")
    return problems


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_references_exist(demo):
    assert missing_references(demo.read_text(encoding="utf-8")) == []


def test_checker_reports_missing_names_and_keywords():
    source = (
        "from rqi import boxpair, udw\n"
        "boxpair.no_such_function(s)\n"
        "udw.transition_rate_accelerated(p, dim=\"1+1\", no_such_keyword=3.0)\n"
        "udw.frequency_window(p, 2.0)\n"
        "udw.transition_rate_inertial()\n"
        "udw.frequency_window(*profiles)\n"
    )
    assert missing_references(source) == [
        "rqi.boxpair.no_such_function does not exist",
        "rqi.udw.transition_rate_accelerated takes no keyword 'no_such_keyword'",
        "rqi.udw.frequency_window: too many positional arguments",
        "rqi.udw.transition_rate_inertial: missing a required argument: 'params'",
    ]
