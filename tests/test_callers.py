"""Code in src/cgrm serves the library, the CLI or the benchmark: every
module-level function and class, and every method, property and classmethod
of a class other than a dunder, has a caller in src/ or bench/, except the
paper's displayed-formula oracles, which only tests reach, and the hooks that
the standard library calls.  The definitions that only bench/ reaches are a
declared set too.  Test-only helpers live in tests/conftest.py."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent

PAPER_ORACLES = {
    "closed_form.cg_m2_display", "closed_form.phi_twist",
    "dunkl.dunkl_monomial_formula", "dunkl.element_e_wedge", "dunkl.beta_poly_op",
    "dunkl.r_m2_poly_op", "frobenius.cg_boundary_functional_displayed",
    "wheels.func_a", "wheels.func_b", "wheels.func_c", "wheels.func_d",
}

# argparse calls ArgumentParser.error itself when a command line does not parse.
LIBRARY_HOOKS = {"cli._Parser.error"}

# Reached only from bench/: nothing in src/cgrm calls them.
BENCH_BOUND = {
    "closed_form.cg_m1_display",
    "frobenius.FrobeniusData.form", "frobenius.FrobeniusData.r_check_inverse",
}


def _references(tree):
    """How often each name is used as a Name or as an Attribute under tree.
    A syntax tree, not a text search: a name inside a string is no caller."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _definitions(stem, tree):
    """(qualified name, node) for each module-level function and class, and each
    method of a class whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield "%s.%s" % (stem, node.name), node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield "%s.%s.%s" % (stem, node.name, item.name), item


def _callers():
    """(qualified name, references from src/cgrm, references from bench/) for
    each definition in src/cgrm, not counting those in its own body."""
    modules = sorted((ROOT / "src" / "cgrm").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in modules}
    src = sum((_references(tree) for tree in trees.values()), Counter())
    bench = sum((_references(ast.parse(p.read_text()))
                 for p in sorted((ROOT / "bench").glob("*.py"))), Counter())
    for p in modules:
        for name, node in _definitions(p.stem, trees[p]):
            yield name, src[node.name] - _references(node)[node.name], bench[node.name]


def test_definitions_without_a_caller_are_the_paper_oracles():
    uncalled = {name for name, src, bench in _callers() if not src + bench}
    assert uncalled == PAPER_ORACLES | LIBRARY_HOOKS


def test_definitions_reached_only_from_bench_are_declared():
    bench_bound = {name for name, src, bench in _callers() if not src and bench}
    assert bench_bound == BENCH_BOUND
