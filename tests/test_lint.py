"""Static checks on the package source and the tests.  No linter is a
dependency, so the unused-import rule is enforced here with the standard
library's ast."""
import ast
from collections import Counter
from pathlib import Path

from code_lines import code_lines

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src" / "mdmart"


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
    paths = [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))]
    found = [f"{path.parent.name}/{path.name}:{line} {name}" for path in paths
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports: " + ", ".join(found)


def local_package_imports(source: str):
    """(line, module) of each import of a module of the package, relative
    or from `mdmart`, made inside a function.  Such an import hides a cycle
    between the package's modules; a function may still import a
    third-party module lazily."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found.update((node.lineno, name) for name in names
                         if name.startswith(".") or name.split(".")[0] == "mdmart")
    return sorted(found)


def test_checker_catches_a_local_package_import():
    src = ("from .models import law\n"
           "def f():\n    from .tilt import tilt\n    from scipy.optimize import brentq\n"
           "    def g():\n        import mdmart.cli\n        from . import verify\n"
           "    import numpy\n")
    assert local_package_imports(src) == [(3, ".tilt"), (6, "mdmart.cli"), (7, ".")]


def test_no_local_package_imports():
    found = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in local_package_imports(path.read_text())]
    assert not found, "package modules imported inside a function: " + ", ".join(found)


# calls that belong to one module: a model's law and transition are read only
# through its compiled state table, its tilted laws only as the padded arrays
# of `law_arrays`, the moments of the one-sided condition only by `certify`
# and `verify_certificate`, every Philox stream is built by the chunk engine,
# both block samplers compose block laws through `alias.compose` (see
# `test_one_doubling`), and the law of a path's last draws is transformed
# only by `alias.last_draws_law`
OWNED_CALLS = {"law_at": "models.py", "next_state": "models.py",
               "tilted_laws": "models.py", "moment_condition": "models.py",
               "Philox": "montecarlo.py", "convolve": "alias.py", "rfft": "alias.py",
               "irfft": "alias.py"}


def called_name(call: ast.Call):
    """The name a call calls, whether bare (`f()`) or as an attribute
    (`x.f()`); None for anything else."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def foreign_calls(source: str, filename: str):
    """(line, name) of each call to a name in OWNED_CALLS made outside the
    module that owns it, whether called bare or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = called_name(node)
            if name in OWNED_CALLS and OWNED_CALLS[name] != filename:
                found.append((node.lineno, name))
    return found


def test_checker_catches_a_foreign_call():
    src = ("law = model.law_at(s)\nnp.random.Philox(key=1)\nm.scaled_law_at(s)\n"
           "tilted = model.tilted_laws(0.5)\nlaw2 = np.convolve(a, b)\n"
           "lhs, rhs = model.moment_condition(1.0, K, L)\n"
           "c = np.fft.irfft(np.fft.rfft(a) * 2.0)\n")
    assert foreign_calls(src, "tilt.py") == [(1, "law_at"), (2, "Philox"),
                                             (4, "tilted_laws"), (5, "convolve"),
                                             (6, "moment_condition"), (7, "irfft"), (7, "rfft")]
    assert foreign_calls(src, "models.py") == [(2, "Philox"), (5, "convolve"), (7, "irfft"),
                                               (7, "rfft")]
    assert foreign_calls(src, "alias.py") == [(1, "law_at"), (2, "Philox"),
                                              (4, "tilted_laws"), (6, "moment_condition")]


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


def callers(source: str, name: str):
    """The innermost enclosing function of each call to `name`, bare or as
    an attribute; '<module>' for a call outside every function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and called_name(child) == name:
                found.append(owner)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_every_caller():
    src = ("law = compose(a, b, 1)\n"
           "def doubled(law):\n    return alias.compose(law, law, 2)\n"
           "class T:\n    def __init__(self, c):\n"
           "        def inner():\n            return compose(c, c, 3)\n")
    assert callers(src, "compose") == ["<module>", "doubled", "inner"]


def all_callers(name):
    """(file, innermost enclosing function) of each call to `name` in the
    package."""
    return [(path.name, owner) for path in sorted(SRC.glob("*.py"))
            for owner in callers(path.read_text(), name)]


def test_one_block_law():
    # the block-sum sampler, the Berbee coupling, the certificate's block
    # moments and the exact variance all derive from the one block-law
    # table, whose one forward pass is in `_block_law`; the models' block
    # pass (`cells` in `_blocks`) merges its cells by the same rule
    assert all_callers("distinct_cells") == [("mixing.py", "_block_law"),
                                            ("models.py", "cells")]


def test_one_doubling():
    # both block samplers double their tables through one routine, the only
    # caller of `compose`
    assert all_callers("compose") == [("alias.py", "doubled")]
    assert all_callers("doubled") == [("mixing.py", "_block_tables"), ("models.py", "_blocks")]


def assigned(source: str, name: str):
    """The lines that bind `name`, as a bare name or as an attribute, by any
    kind of assignment, in order."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Store)
                  and name in (getattr(node, "id", None), getattr(node, "attr", None)))


def test_checker_finds_every_assignment():
    src = ("CAP = 1\nx.CAP = 2\nCAP += 1\nCAP: int = 4\nfor CAP in y:\n    pass\n"
           "z = CAP\nw = x.CAP\n")
    assert assigned(src, "CAP") == [1, 2, 3, 4, 5]


def test_one_completion_cap():
    # both samplers' completions integrate their last draws at one cap,
    # which only `alias` sets
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in assigned(path.read_text(), "COMPLETION_CELLS")]
    assert [name for name, _ in found] == ["alias.py"], found


# the code whose needs define the library: the package itself, the benchmark
# and the acceptance gate; a unit test alone does not keep a definition alive
ROOT = SRC.parent.parent
REACHING = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
            TESTS / "test_acceptance.py"]


def public_definitions(tree):
    """(qualified name, node) of each public module-level function and class,
    and of each public method of a module-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item) for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def references(node):
    """Every name `node` reads: bare names, attribute names, and string
    constants that name one ('f' or 'layer.f', as the benchmark's tracer
    looks functions up by string)."""
    refs = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs.append(sub.value.rpartition(".")[2])
    return refs


def unreached(sources, reaching):
    """'file:line qualified name' of each public definition in `sources`
    (file name -> source) that no code in `reaching` (a list of sources)
    references outside the definition itself."""
    total = Counter(ref for source in reaching for ref in references(ast.parse(source)))
    found = []
    for filename, source in sources.items():
        for qualname, node in public_definitions(ast.parse(source)):
            if total[node.name] - references(node).count(node.name) <= 0:
                found.append(f"{filename}:{node.lineno} {qualname}")
    return found


def test_checker_catches_an_unreached_definition():
    lib = ("def used():\n    return helper()\n\n"
           "def helper():\n    return helper()\n\n"
           "class Spec:\n    def to_json(self):\n        return 1\n\n"
           "    def stage(self):\n        return 2\n")
    # `used` is reached only through the string, `helper` only through `used`
    caller = "Spec().stage()\nTRACED = 'lib.used'\n"
    assert unreached({"lib.py": lib}, [lib, caller]) == ["lib.py:8 Spec.to_json"]
    assert unreached({"lib.py": lib}, [lib]) == [
        "lib.py:1 used", "lib.py:7 Spec", "lib.py:8 Spec.to_json",
        "lib.py:11 Spec.stage"]


def test_no_unreached_definitions():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = unreached(sources, [path.read_text() for path in REACHING])
    assert not found, ("public definitions that neither the package, perfbench "
                       "nor the acceptance gate reaches: " + ", ".join(found))


# the code whose calls set a function's parameters: the package, the
# benchmark and every test
CALLING = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           *sorted(TESTS.glob("*.py"))]


def defaulted_parameters(tree):
    """(qualified name, line, called names, positional index, name) of each
    parameter with a default of a function or method in `tree`.  A method
    is called by its own name and its index skips self or cls; a class's
    __init__ is also called by the class's name."""
    methods = {id(item): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = methods.get(id(node))
        qualname, names, skip = node.name, {node.name}, 0
        if cls is not None:
            qualname, skip = f"{cls.name}.{node.name}", 1
            if node.name == "__init__":
                names.add(cls.name)
        a = node.args
        positional = a.posonlyargs + a.args
        for i, arg in enumerate(positional[len(positional) - len(a.defaults):],
                                start=len(positional) - len(a.defaults)):
            found.append((qualname, node.lineno, names, i - skip, arg.arg))
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                found.append((qualname, node.lineno, names, None, arg.arg))
    return found


def unset_options(sources, calling):
    """'file:line function(parameter)' of each defaulted parameter of a
    function or method in `sources` (file name -> source) that no call in
    `calling` (a list of sources) sets, by position or by keyword.  Calls are
    matched by the name they call.  A call with * or ** sets every
    parameter; a function named other than as a call's callee is passed as
    a value (a factory table, say) and exempt."""
    positions, keywords, spread, passed = Counter(), set(), set(), set()
    for source in calling:
        # a callee, or the object an attribute is read from, is not passed
        callees = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                callees.add(id(node.value))
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
                name = called_name(node)
                if (any(isinstance(arg, ast.Starred) for arg in node.args)
                        or any(kw.arg is None for kw in node.keywords)):
                    spread.add(name)
                positions[name] = max(positions[name], len(node.args))
                keywords.update((name, kw.arg) for kw in node.keywords)
            elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees:
                passed.add(node.id if isinstance(node, ast.Name) else node.attr)
    found = []
    for filename, source in sources.items():
        for qualname, line, names, index, param in defaulted_parameters(ast.parse(source)):
            if not any(name in spread or name in passed or (name, param) in keywords
                       or (index is not None and index < positions[name])
                       for name in names):
                found.append(f"{filename}:{line} {qualname}({param})")
    return found


def test_checker_catches_an_unset_option():
    lib = ("def f(a, b=1, c=2):\n    return a\n\n"
           "def made(n, depth=1e5):\n    return n\n\n"
           "class K:\n    def __init__(self, n, depth=1e5):\n        self.n = n\n\n"
           "    def ci(self, k, level=0.95, *, tail=2):\n        return k\n\n"
           "TABLE = {'made': made}\n")
    # made is passed as a value; K.__name__ reads K but does not pass it
    caller = "f(1, 2)\nk = K(3)\nk.ci(1, tail=1)\nname = K.__name__\n"
    assert unset_options({"lib.py": lib}, [lib, caller]) == [
        "lib.py:1 f(c)", "lib.py:8 K.__init__(depth)", "lib.py:11 K.ci(level)"]
    # a spread call sets everything; a keyword or a position sets its own
    caller = "f(*args)\nK(3, depth=2)\nk.ci(1, 0.9)\n"
    assert unset_options({"lib.py": lib}, [lib, caller]) == ["lib.py:11 K.ci(tail)"]


def test_no_unset_options():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = unset_options(sources, [path.read_text() for path in CALLING])
    assert not found, ("defaulted parameters that no call in the package, "
                       "perfbench or the tests sets: " + ", ".join(found))


def test_code_lines_skip_docstrings_comments_and_blanks():
    # the counter behind the code-line figures in CHANGES.md: the docstrings
    # of a module, a class and a function, the comments and the blank lines
    # count for nothing; a bracket or a string that is not a docstring
    # counts every line it spans
    src = ('"""A module,\ndocumented."""\n\nimport math  # trailing comment\n\n\n'
           "# a comment line\nclass K:\n    'One line.'\n\n    def f(self, x):\n"
           "        '''A method,\n        documented.'''\n        y = (x +\n             1)\n"
           "        s = '''a string\n        on two lines'''\n        return math.sqrt(y), s\n")
    assert code_lines(src) == 8
