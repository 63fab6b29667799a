"""model.load_csv_rows stays the one parser of numeric CSV cells, and model.read_columns the one
header read beside ingest's.

The test parses each module of ``firmgrowth`` with ``ast``.  It fails on any mention of
``genfromtxt``, ``DictReader`` or ``fromfile``; on ``loadtxt`` outside
``model.load_csv_rows``; and on ``csv.reader`` outside ``panel`` (whose ingest parses the
rows ``np.loadtxt`` cannot) and ``model.read_columns``.
"""

import ast
from pathlib import Path

import firmgrowth

PACKAGE = Path(firmgrowth.__file__).resolve().parent

NOWHERE = {"genfromtxt", "DictReader", "fromfile"}
ONLY_IN = {"loadtxt": ("model.load_csv_rows",), "csv.reader": ("panel", "model.read_columns")}


def csv_reads(tree, module):
    """(line, what, place) of every CSV reader mentioned in `tree`, where `place` is the dotted
    path of the module, classes and functions that hold the mention."""
    found = []

    def visit(node, place):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            place = f"{place}.{node.name}"
        what = None
        if isinstance(node, ast.Attribute):
            is_csv = isinstance(node.value, ast.Name) and node.value.id == "csv"
            what = "csv.reader" if is_csv and node.attr == "reader" else node.attr
        elif isinstance(node, ast.Name):
            what = node.id
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            what = next((f"csv.{a.name}" for a in node.names if a.name == "reader"), None)
        elif isinstance(node, ast.alias):
            what = node.name
        if what in NOWHERE or what in ONLY_IN:
            found.append((node.lineno, what, place))
        for child in ast.iter_child_nodes(node):
            visit(child, place)

    visit(tree, module)
    return found


def misplaced(tree, module):
    """(line, what) of every reader in `tree` that is not where the rules allow it."""
    return [
        (line, what)
        for line, what, place in csv_reads(tree, module)
        if not any(place == ok or place.startswith(f"{ok}.") for ok in ONLY_IN.get(what, ()))
    ]


def test_load_csv_rows_is_the_only_cell_parser():
    bad = [
        f"{path.name}:{line} {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in misplaced(ast.parse(path.read_text()), path.stem)
    ]
    assert not bad, "read numeric CSV input through model.read_columns: " + ", ".join(bad)


def test_the_guard_sees_each_kind_of_reader():
    source = """
import csv
from csv import DictReader
from numpy import genfromtxt, loadtxt
rows = csv.DictReader(fh)
data = np.genfromtxt(fh, delimiter=",")
raw = np.fromfile(path)
def read_columns(path):
    return np.loadtxt(path), next(csv.reader(fh))
def load_csv_rows(path):
    return np.loadtxt(path), next(csv.reader(fh))
from csv import reader
class Panel:
    def load_csv_rows(self, path):
        return np.loadtxt(path)
"""
    tree = ast.parse(source)
    assert misplaced(tree, "model") == [
        (3, "DictReader"), (4, "genfromtxt"), (4, "loadtxt"), (5, "DictReader"),
        (6, "genfromtxt"), (7, "fromfile"), (9, "loadtxt"), (11, "csv.reader"),
        (12, "csv.reader"), (15, "loadtxt"),
    ]
    assert misplaced(tree, "panel") == [  # any csv.reader, no loadtxt
        (3, "DictReader"), (4, "genfromtxt"), (4, "loadtxt"), (5, "DictReader"),
        (6, "genfromtxt"), (7, "fromfile"), (9, "loadtxt"), (11, "loadtxt"), (15, "loadtxt"),
    ]
