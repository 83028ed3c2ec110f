"""``mdlbackbone/__init__.py`` is the one list of the public API, and the
README's "Library usage" section documents the same names."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import mdlbackbone

README = Path(__file__).resolve().parents[1] / "README.md"


def library_usage():
    """The README's "Library usage" section, up to the next heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library usage\n")
    return text[start:text.index("\n## ", start)]


def exported():
    """The package's public names: no leading underscore, no submodule."""
    return {name for name, obj in vars(mdlbackbone).items()
            if not name.startswith("_") and not inspect.ismodule(obj)}


def submodule_definitions():
    """The public module-level functions and classes each submodule defines."""
    names = set()
    for info in pkgutil.iter_modules(mdlbackbone.__path__):
        module = importlib.import_module(f"{mdlbackbone.__name__}.{info.name}")
        names.update(name for name, obj in vars(module).items()
                     if not name.startswith("_")
                     and (inspect.isfunction(obj) or inspect.isclass(obj))
                     and obj.__module__ == module.__name__)
    return names


def test_every_exported_name_is_in_the_readme():
    section = library_usage()
    assert sorted(name for name in exported()
                  if not re.search(rf"\b{name}\b", section)) == []


def test_every_documented_definition_is_exported():
    prose = re.sub(r"```.*?```", "", library_usage(), flags=re.S)
    # the name a code span starts with: `summarize`, `directed_view(g)`
    backticked = {span.group(1) for span in re.finditer(r"`([A-Za-z_]\w*)[^`]*`", prose)}
    assert sorted((backticked & submodule_definitions()) - exported()) == []

