"""Every definition in the package is reachable from the command line.

The walk parses each module of ``firmgrowth`` with ``ast``.  Its nodes are
the top-level functions, classes, methods and module-level assignments; its
roots are ``cli.main``, ``cli._COMMANDS`` and ``experiments._RUNNERS``.  A
node reaches every node whose name appears in its body as a name or an
attribute, and a class it reaches also reaches its dunder methods.

Matching by name over-approximates reach: every definition that shares a
name with something a reached node mentions (a local variable, a NumPy
method such as ``np.add.reduce``) counts as reached.  So the test can miss
dead code, but a definition it reports is one no command can call, unless
it is looked up by a string.
"""

import ast
from pathlib import Path

import firmgrowth

PACKAGE = Path(firmgrowth.__file__).resolve().parent

ROOTS = ("cli.main", "cli._COMMANDS", "experiments._RUNNERS")

# definitions no command reaches, kept on purpose, with the reason
ALLOWED_UNREACHED = {}


def _names_in(*trees):
    """Every name and attribute mentioned anywhere in `trees`."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def definition_graph():
    """{qualified name: (short name, names it mentions, nodes it reaches outright)}."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                graph[f"{module}.{stmt.name}"] = (stmt.name, _names_in(stmt), set())
            elif isinstance(stmt, ast.ClassDef):
                cls = f"{module}.{stmt.name}"
                methods = [s for s in stmt.body if isinstance(s, (ast.FunctionDef,
                                                                  ast.AsyncFunctionDef))]
                rest = [s for s in stmt.body if s not in methods]
                mentions = _names_in(*stmt.bases, *stmt.keywords, *stmt.decorator_list, *rest)
                dunders = {f"{cls}.{m.name}" for m in methods
                           if m.name.startswith("__") and m.name.endswith("__")}
                graph[cls] = (stmt.name, mentions, dunders)
                for m in methods:
                    graph[f"{cls}.{m.name}"] = (m.name, _names_in(m), set())
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                value = [stmt.value] if stmt.value is not None else []
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            graph[f"{module}.{node.id}"] = (node.id, _names_in(*value), set())
    return graph


def unreached():
    graph = definition_graph()
    by_name = {}
    for qual, (name, _, _) in graph.items():
        by_name.setdefault(name, set()).add(qual)
    seen, todo = set(ROOTS), list(ROOTS)
    while todo:
        _, mentions, outright = graph[todo.pop()]
        for qual in outright.union(*(by_name.get(n, ()) for n in mentions)):
            if qual not in seen:
                seen.add(qual)
                todo.append(qual)
    return set(graph) - seen


def test_every_definition_is_reachable_from_the_cli():
    found, allowed = unreached(), set(ALLOWED_UNREACHED)
    assert not found - allowed, f"no command reaches {', '.join(sorted(found - allowed))}"
    assert not allowed - found, f"drop {', '.join(sorted(allowed - found))} from the allowlist"
