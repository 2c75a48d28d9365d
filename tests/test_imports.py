"""Every name a library module imports is used in it, every private
module-level name it defines is used somewhere in the package, importing
the package or the CLI loads neither numpy nor any part of scipy, a
command loads scipy only when it calls a `scipy.special` function (`mi`,
`spectrum` and `experiment` do not), the capacity commands run on the
standard library alone, and the input law, the channel spec, the Poisson
entropy, the spectrum and its certified tail call no incomplete gamma
function.

An import kept on purpose (a name that another tool rebinds from outside)
carries `# noqa: F401` on its line and is skipped.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import freqcap

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "freqcap"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the imports of `source` that no expression reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        # `import a.b` binds `a`
        imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_only_unused_unmarked_names():
    source = (
        "import math\n"
        "import os.path\n"
        "from json import (  # noqa: F401\n"
        "    dumps,\n"
        ")\n"
        "import numpy as np\n"
        "from . import sibling as sib\n"
        "def f():\n"
        "    from re import compile\n"
        "    return np.log(sib.x), os.sep\n"
    )
    assert unused_imports(source) == ["compile", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def _definitions(tree):
    """(name, first line, last line) of each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node.lineno, node.end_lineno


def _reads(tree) -> list:
    """(name, line) of each name `tree` reads, by name, as an attribute or through an import."""
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            reads.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            reads.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            reads.extend((alias.name, node.lineno) for alias in node.names)
    return reads


def unreferenced_privates(sources: dict) -> list:
    """`module:name` for each private module-level definition in `sources`
    (module name -> source) that no code outside its own definition reads,
    by name, as an attribute or through an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(name, module, line) for module, tree in trees.items() for name, line in _reads(tree)]
    unread = []
    for module, tree in trees.items():
        for name, first, last in _definitions(tree):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(
                n == name and (m != module or not first <= line <= last) for n, m, line in reads
            ):
                unread.append(f"{module}:{name}")
    return sorted(unread)


def test_private_checker_flags_only_unread_definitions():
    sources = {
        "a": (
            "_USED = 1\n"
            "_DEAD = 2\n"
            "__all__ = []\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) + _USED\n"
            "class _Imported:\n"
            "    pass\n"
            "def _via_attribute():\n"
            "    pass\n"
        ),
        "b": "from .a import _Imported\nimport a\na._via_attribute()\n",
    }
    assert unreferenced_privates(sources) == ["a:_DEAD", "a:_recursive"]


def test_every_private_definition_is_used():
    assert unreferenced_privates({path.stem: path.read_text() for path in PACKAGE}) == []


def exported_names(init_source: str) -> list:
    """The names a package's `__init__` re-exports from its modules: the strings of its
    `_EXPORTS` table (module -> names)."""
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
                "_EXPORTS"]:
            return sorted(leaf.value for names in node.value.values for leaf in ast.walk(names)
                          if isinstance(leaf, ast.Constant))
    return []


def test_exported_names_reads_the_export_table():
    # pinned, so that the reader check below cannot pass on an empty list
    names = exported_names((SRC / "__init__.py").read_text())
    assert len(names) == 52
    assert names == sorted(freqcap.__all__)


def unread_public_names(names, sources: dict, texts=()) -> list:
    """The names in `names` that no text in `texts` mentions as a word and no Python
    source in `sources` reads outside its own module-level definition: by name, as an
    attribute, through an import, or as a string constant that is not in `__all__`."""
    unread = set(names) - {word for text in texts for word in re.findall(r"\w+", text)}
    for source in sources.values():
        tree = ast.parse(source)
        listed = {id(leaf) for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                  for leaf in ast.walk(node.value)}
        strings = [(node.value, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value in unread
                   and id(node) not in listed]
        own = {name: (first, last) for name, first, last in _definitions(tree)}
        for name, line in _reads(tree) + strings:
            first, last = own.get(name, (0, -1))
            if not first <= line <= last:
                unread.discard(name)
    return sorted(unread)


def test_public_checker_flags_only_unread_names():
    sources = {
        "a.py": (
            '__all__ = ["dead", "by_string"]\n'
            "def dead():\n"
            "    return dead()\n"
            "def called():\n"
            "    pass\n"
            "def documented():\n"
            "    pass\n"
            "def by_string():\n"
            "    pass\n"
        ),
        "b.py": 'import a\na.called()\nBINDINGS = (("a", "by_string"),)\n',
    }
    names = ["by_string", "called", "dead", "documented"]
    assert unread_public_names(names, sources, ["`documented()` is public"]) == ["dead"]


# readers of the public API: the library, the README, the acceptance criteria, the
# scripts and the benchmark; a name only its own tests read is dead surface
def test_every_public_name_has_a_reader():
    readers = [*MODULES, ROOT / "tests" / "test_acceptance.py",
               *sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    names = exported_names((SRC / "__init__.py").read_text())
    sources = {str(path): path.read_text() for path in readers}
    assert unread_public_names(names, sources, [(ROOT / "README.md").read_text()]) == []


def _fresh_modules(code: str, cwd=None) -> list:
    """The names in `sys.modules` at the end of a fresh process that runs `code` in `cwd`."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules, sep='\\n')"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
        cwd=cwd,
    )
    return done.stdout.split()


@pytest.mark.parametrize("module", ["freqcap", "freqcap.cli"])
def test_import_loads_neither_numpy_nor_scipy(module):
    # the package's names and the CLI's numeric names are imported on first use
    loaded = _fresh_modules(f"import {module}")
    assert [m for m in loaded if m.split(".")[0] in ("numpy", "scipy")] == []


def _run_command(argv, workdir) -> list:
    """The modules a fresh process has loaded after `cli.run(argv)` returned 0 in `workdir`,
    which holds EXPERIMENT_CFG as experiment.cfg."""
    (workdir / "experiment.cfg").write_text(EXPERIMENT_CFG)
    code = ("import contextlib, io\nfrom freqcap import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.run({argv!r}) == 0")
    return _fresh_modules(code, workdir)


BOUNDS = ["bounds", "--g", "100", "--r", "40"]
DNA = ["dna", "--alphabet", "4", "--beta-log-a", "0.76", "--kl", "4e21"]
FIGURE2 = ["figure2", "--out", os.devnull]
SIMULATE = ["simulate", "--g", "2", "--r", "3", "--codeword", "3,4,1,0,2,2", "--seed", "7"]
MI = ["mi", "--input", "trunc-gamma", "--g", "20", "--rho", "0.1", "--gain", "0.4", "--i-mmpe"]
SPECTRUM = ["spectrum", "--input", "trunc-gamma", "--g", "8", "--rho", "0.5", "--gain", "0.4",
            "--n", "500", "--samples", "2000", "--thresholds", "0.3,0.5", "--seed", "7"]
EXPERIMENT = ["experiment", "--config", "experiment.cfg"]
EXPERIMENT_CFG = "n=200\ng=8.0\nr=3.2\nrho=0.5\ndelta=0.3\ndecoder=threshold\ntrials=20\nseed=1\n"
VERIFY = ["verify", "--suite", "appendix"]


# README commands; one that calls no `scipy.special` function loads no scipy module at all,
# and `verify` calls scipy's gammainc, so the test cannot pass vacuously
@pytest.mark.parametrize("argv, loads_special", [
    (BOUNDS, False), (DNA, False), (FIGURE2, False), (SIMULATE, False), (MI, False),
    (SPECTRUM, False), (EXPERIMENT, False), (VERIFY, True),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_command_loads_scipy_special_only_when_it_calls_it(argv, loads_special, tmp_path):
    scipy = [m for m in _run_command(argv, tmp_path) if m.split(".")[0] == "scipy"]
    assert ("scipy.special" in scipy) is loads_special
    assert bool(scipy) is loads_special


# the capacity commands need only `math`; the others cannot run without numpy
@pytest.mark.parametrize("argv, loads_numpy", [
    (BOUNDS, False), (DNA, False), (FIGURE2, False), (SIMULATE, True), (MI, True),
    (EXPERIMENT, True),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_only_the_numeric_commands_load_numpy(argv, loads_numpy, tmp_path):
    roots = {m.split(".")[0] for m in _run_command(argv, tmp_path)}
    assert ("numpy" in roots) is loads_numpy
    if not loads_numpy:
        assert "scipy" not in roots


def test_no_table_nor_the_certified_tail_calls_the_incomplete_gamma(monkeypatch):
    # the input law takes its cells from math.erf and math.erfc, every Poisson window is
    # certified by Bennett's bound in closed form, and the exact tails T_x of the certified
    # spectrum tail are sums on the walker's blocks
    import scipy.special

    from freqcap.distributions import RngStream, poisson_entropy, truncated_rounded_input_pmf
    from freqcap.mutual_info import PoissonChannelSpec, _LetterTable, _TiltedRows, spectrum_mc

    def refuse(*args):
        raise AssertionError("incomplete gamma called")

    monkeypatch.setattr(scipy.special, "gammainc", refuse)
    monkeypatch.setattr(scipy.special, "gammaincc", refuse)
    law = truncated_rounded_input_pmf(20.0, 0.5)
    spec = PoissonChannelSpec(law, 0.4)
    poisson_entropy([1e-300, 1e-9, 1.0, 50.0, 149.0, 500.0])
    _LetterTable.build(spec)
    spectrum_mc(spec, 10, 10, RngStream(1))
    rows = _TiltedRows(spec)
    rows.sums(0.5)
    rows.means()
