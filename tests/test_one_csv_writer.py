"""cli.write_table_csv stays the one CSV writer, and cli the one module that writes files.

The test parses each module of ``firmgrowth`` with ``ast``.  It fails on any
mention of ``csv.writer``, ``DictWriter`` or ``savetxt``, and on any file
opened for writing outside ``cli``: ``open`` with a mode that writes (or a
mode that is not a literal), ``write_text``, ``write_bytes``, or NumPy's
``save``, ``savez`` and ``tofile``.  Readers are ``test_one_csv_reader.py``'s
to check.
"""

import ast
from pathlib import Path

import firmgrowth

PACKAGE = Path(firmgrowth.__file__).resolve().parent

OTHER_WRITERS = {"writer", "DictWriter", "savetxt"}
FILE_WRITES = {"write_text", "write_bytes", "save", "savez", "savez_compressed", "tofile"}


def _open_mode(call):
    """The mode of an ``open(...)`` or ``x.open(...)`` call, "r" if it has none, None if not literal."""
    is_path_method = isinstance(call.func, ast.Attribute)  # Path.open(mode) has no file argument
    args = call.args[0 if is_path_method else 1:]
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), args[0] if args else None)
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def file_writes(tree):
    """(line, what) of every CSV writer mentioned and every file opened for writing in `tree`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in OTHER_WRITERS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in OTHER_WRITERS - {"writer"}:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.alias) and node.name in OTHER_WRITERS:
            found.append((node.lineno, f"import {node.name}"))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "open":
                mode = _open_mode(node)
                if mode is None or set(mode) & set("wax+"):
                    found.append((node.lineno, f"open(mode={mode!r})"))
            elif name in FILE_WRITES:
                found.append((node.lineno, name))
    return found


def test_write_table_csv_is_the_only_writer():
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, what in file_writes(ast.parse(path.read_text())):
            if path.stem != "cli" or what in OTHER_WRITERS or what.startswith("import "):
                bad.append(f"{path.name}:{line} {what}")
    assert not bad, "write files through cli.write_table_csv or cli.write_json: " + ", ".join(bad)


def test_the_guard_sees_each_kind_of_writer():
    source = """
import csv
from csv import DictWriter
w = csv.writer(fh)
np.savetxt(path, rows)
open(path, "w")
open(path, mode="a")
open(path, flag)
Path(path).open("w")
Path(path).write_text(text)
np.save(path, arr)
with open(path) as fh, open(path, "rb") as raw, Path(path).open() as again:
    rows = csv.reader(fh)
"""
    assert sorted(line for line, _ in file_writes(ast.parse(source))) == list(range(3, 12))
