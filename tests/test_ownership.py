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


def point_shape_restores(source: str) -> set:
    """The (line, form) of each hand-written point-shape restore in
    `source`: a `[()]` subscript, `atleast_1d`, or an `.ndim == 0` test."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(
                node.slice, ast.Tuple) and not node.slice.elts:
            found.add((node.lineno, "[()]"))
        elif isinstance(node, ast.Attribute) and node.attr == "atleast_1d" \
                or isinstance(node, ast.Name) and node.id == "atleast_1d":
            found.add((node.lineno, "atleast_1d"))
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(isinstance(x, ast.Attribute) and x.attr == "ndim"
                   for x in sides) and any(
                    isinstance(x, ast.Constant) and x.value == 0
                    for x in sides):
                found.add((node.lineno, "ndim == 0"))
    return found


def test_only_jets_restores_a_point_shape():
    # jets.pointwise owns the point shape; everyone else goes through it.
    found = {(path.stem, line, form) for path in sorted(SRC.glob("*.py"))
             if path.stem != "jets"
             for line, form in point_shape_restores(path.read_text())}
    assert found == set()


def test_the_point_shape_check_sees_each_form():
    source = ("x = y.reshape(s)[()]\n"
              "a = np.atleast_1d(r)\n"
              "scalar = r.ndim == 0\n"
              "flat = 0 == np.asarray(r).ndim\n"
              "ok = r.ndim != 1 and r[0] and r[(0,)] and t.shape == ()\n")
    assert point_shape_restores(source) == {
        (1, "[()]"), (2, "atleast_1d"), (3, "ndim == 0"), (4, "ndim == 0")}


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


def test_sloc_against_prints_each_module_old_to_new(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for tree, files in ((old, {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}),
                        (new, {"a.py": "x = 1\n", "c.py": "u = 1\nv = 2\n"})):
        tree.mkdir()
        for name, text in files.items():
            (tree / name).write_text(text)
    assert _sloc().main([str(new), "--against", str(old)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     0 ->      2  (+2)  c",
        "     2 ->      1  (-1)  a",
        "     1 ->      0  (-1)  b",
        "     3 ->      3  (+0)  total"]
    assert _sloc().main([str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     2  c", "     1  a", "     3  total"]
