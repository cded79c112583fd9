"""The docs name only what exists.

README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` point readers
at code: ``src/``, ``tests/``, ``benchmarks/`` and ``examples/`` paths,
``path::name`` test and function ids, and dotted ``repro.…`` names in
backticks.  Each must resolve in this checkout, so a rename or a
deletion that leaves a doc behind fails here.  A path that
``.gitignore`` lists (a cache a run creates) is not a reference to
code and is skipped.  The two lists of ``repro`` subcommands, in the
``repro.cli`` docstring and in README's architecture sketch, must name
exactly the subcommands the parser has.
"""

import argparse
import ast
import glob
import importlib
import itertools
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCS = (["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        + sorted(str(p.relative_to(ROOT))
                 for p in (ROOT / "docs").glob("*.md")))

_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|examples)/"
    r"(?:[\w.*/-]|\{[\w.,-]*\})*)"
    r"((?:::[\w\[\].-]+)*)")
_MODULE = re.compile(r"`(repro(?:\.\w+)+)")


def _ignored():
    lines = (ROOT / ".gitignore").read_text().splitlines()
    return {line.strip() for line in lines
            if line.strip() and not line.startswith("#")}


def _expand(path):
    """``a_{x,y}.txt`` -> ``a_x.txt``, ``a_y.txt``."""
    parts = re.split(r"\{([^}]*)\}", path)
    options = [[part] if i % 2 == 0 else part.split(",")
               for i, part in enumerate(parts)]
    return ["".join(choice) for choice in itertools.product(*options)]


def _references():
    ignored = _ignored()
    refs = []
    for doc in DOCS:
        text = (ROOT / doc).read_text()
        for match in _PATH.finditer(text):
            path = match.group(1).rstrip(".")
            if path in ignored:
                continue
            names = [name.split("[")[0]
                     for name in match.group(2).split("::") if name]
            for each in _expand(path):
                refs.append((doc, "path", (each, tuple(names))))
        for match in _MODULE.finditer(text):
            refs.append((doc, "dotted", match.group(1)))
    return refs


REFERENCES = _references()


def _defines(tree, names):
    """True if the module ``tree`` defines ``names[0]`` at top level
    and each later name inside the class before it."""
    body = tree.body
    for name in names:
        found = None
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node.name == name:
                found = node
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == name
                    for t in node.targets):
                found = node
        if found is None:
            return False
        body = getattr(found, "body", [])
    return True


def _resolves(dotted):
    """Import the longest module prefix of ``dotted``, then look up the
    rest as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_the_docs_reference_code():
    """The extraction itself works: every kind of reference is found,
    so an empty scan cannot pass vacuously."""
    paths = [ref for _doc, kind, ref in REFERENCES if kind == "path"]
    assert len(paths) > 50 and len(REFERENCES) - len(paths) > 50
    assert any(names for _path, names in paths)


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_path_exists(doc):
    missing = []
    for ref_doc, kind, ref in REFERENCES:
        if ref_doc != doc or kind != "path":
            continue
        path, names = ref
        matches = glob.glob(str(ROOT / path))
        if not matches:
            missing.append(path)
            continue
        if names:
            tree = ast.parse(pathlib.Path(matches[0]).read_text())
            if not _defines(tree, names):
                missing.append("::".join((path,) + names))
    assert not missing, f"{doc} names what does not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_module_resolves(doc):
    missing = sorted({ref for ref_doc, kind, ref in REFERENCES
                      if ref_doc == doc and kind == "dotted"
                      and not _resolves(ref)})
    assert not missing, f"{doc} names what does not exist: {missing}"


def _subcommands():
    from repro.cli import build_parser
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return sorted(action.choices)


def test_cli_docstring_names_every_subcommand():
    import repro.cli
    block = repro.cli.__doc__.split("Commands:\n\n", 1)[1]
    entries = block.split("\n\n", 1)[0]
    named = re.findall(r"^``([\w-]+)", entries, re.MULTILINE)
    assert sorted(named) == _subcommands()


def test_readme_names_every_subcommand():
    text = (ROOT / "README.md").read_text()
    (names,) = re.findall(r"cli\.py\s+`python -m repro ([^`]*)`", text)
    assert sorted(re.sub(r"\s+", "", names).split("|")) == _subcommands()
