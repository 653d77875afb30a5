"""Static checks on the package source.  No linter is a dependency, so the
unused-import rule is enforced here with the standard library's ast."""
import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "mdmart"


def unused_imports(source: str):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_checker_catches_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [(1, "os")]
    assert unused_imports("from a import b as c\nc()\n") == []


def test_no_unused_imports():
    found = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports: " + ", ".join(found)


# calls that belong to one module: a model's law and transition are read only
# through its compiled state table, and every Philox stream is built by the
# chunk engine
OWNED_CALLS = {"law_at": "models.py", "next_state": "models.py",
               "Philox": "montecarlo.py"}


def foreign_calls(source: str, filename: str):
    """(line, name) of each call to a name in OWNED_CALLS made outside the
    module that owns it, whether called bare or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in OWNED_CALLS and OWNED_CALLS[name] != filename:
                found.append((node.lineno, name))
    return found


def test_checker_catches_a_foreign_call():
    src = "law = model.law_at(s)\nnp.random.Philox(key=1)\nm.scaled_law_at(s)\n"
    assert foreign_calls(src, "tilt.py") == [(1, "law_at"), (2, "Philox")]
    assert foreign_calls(src, "models.py") == [(2, "Philox")]


def test_one_model_representation():
    found = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in foreign_calls(path.read_text(), path.name)]
    assert not found, "calls outside their owning module: " + ", ".join(found)


# draw calls that return one number when called without arguments; the
# package draws whole arrays, so such a call is a per-sample Python loop
SCALAR_DRAWS = {"random", "uniform", "standard_normal"}


def scalar_draws(source: str):
    """(line, name) of each call `.random()`, `.uniform()` or
    `.standard_normal()` made without arguments."""
    return [(node.lineno, node.func.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in SCALAR_DRAWS and not node.args and not node.keywords]


def test_checker_catches_a_scalar_draw():
    src = ("u = rng.random()\nv = rng.random(8)\n"
           "z = rng.standard_normal(size=3)\nw = g.uniform()\n")
    assert scalar_draws(src) == [(1, "random"), (4, "uniform")]


def test_no_scalar_draws():
    found = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in scalar_draws(path.read_text())]
    assert not found, "draws of one number: " + ", ".join(found)
