"""README names only `rqi` attributes that exist.

Every inline code span of the form `module.name` (dotted identifiers, such as
`gaussian.SymplecticMap.inverse` or `rqi.nonpert`) whose first part is `rqi`
or one of its modules must resolve by `getattr`.  Spans naming other modules,
such as `scipy.linalg.expm`, are not checked.
"""

import importlib
import pathlib
import pkgutil
import re

import rqi

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
MODULES = {info.name for info in pkgutil.iter_modules(rqi.__path__)}


def rqi_names(text):
    """The dotted code spans of `text` that start at `rqi` or one of its modules."""
    spans = DOTTED.findall(re.sub(r"```.*?```", "", text, flags=re.S))
    return [span for span in spans if span.split(".")[0] in MODULES | {"rqi"}]


def missing_names(text):
    """The `rqi` names in `text` that do not resolve."""
    for module in MODULES:  # `rqi.<module>` resolves only once the submodule is imported
        importlib.import_module("rqi." + module)
    problems = []
    for span in rqi_names(text):
        head, *rest = span.split(".")
        obj = importlib.import_module("rqi" if head == "rqi" else "rqi." + head)
        for attr in rest:
            obj = getattr(obj, attr, None)
            if obj is None:
                problems.append(span)
                break
    return problems


def test_readme_api_names_exist():
    text = README.read_text(encoding="utf-8")
    assert len(rqi_names(text)) > 10  # the parse still finds README's names
    assert missing_names(text) == []


def test_checker_reports_missing_names():
    text = (
        "Maps are certified in `gaussian.SymplecticMap` and `gaussian.SymplecticMap.inverse`,\n"
        "but `gaussian.convert_basis` is gone, `rqi.nowhere` never was, `scipy.linalg.expm`\n"
        "is not ours and `boson.compose_segment.no_such_attribute` does not exist.\n"
    )
    assert missing_names(text) == ["gaussian.convert_basis", "rqi.nowhere", "boson.compose_segment.no_such_attribute"]
