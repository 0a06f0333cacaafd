"""Each evaluation decision has one owner: no module of the package reads a
private name of another, and the code-line counter counts what it says."""

import ast
import importlib.util
from pathlib import Path

import holocurve

SRC = Path(holocurve.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def borrowed_private_names(source: str) -> set:
    """The private names of sibling modules that `source` reads: `from .m
    import _name`, and `m._name` on a module bound by `from . import m`."""
    tree = ast.parse(source)
    siblings, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name) and node.value.id in siblings \
                and _private(node.attr):
            found.add(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in borrowed_private_names(path.read_text())}
    assert found == set()


def test_the_ownership_check_sees_both_forms():
    source = ("from . import jets, _table\n"
              "from ._table import write_csv, _tables\n"
              "from .oracle import _images as images, eval_curve\n"
              "n = jets._CHUNK + jets.blocks(3) + _table.CsvFile\n"
              "m = jets.__name__\n")
    assert borrowed_private_names(source) == {"_tables", "_images",
                                              "jets._CHUNK"}


def _sloc():
    path = SRC.parents[1] / "tools" / "sloc.py"
    spec = importlib.util.spec_from_file_location("sloc", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = ('"""Module\n'
              'docstring."""\n'
              "# a comment\n"
              "\n"
              "class A:\n"
              "    '''Class docstring.'''\n"
              "    x = '''a string\n"
              "that is code'''  # counted\n"
              "\n"
              "    def f(self):\n"
              '        """Function\n'
              '        docstring."""\n'
              "        return (1 +\n"
              "                2)\n")
    # class A, x = ... (two lines), def f, return (two lines)
    assert _sloc().code_lines(source) == 6
