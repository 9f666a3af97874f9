"""Source layout: each input rule is stated once, in `menulearn.core`, and
every memo lives on the object that owns it.

The parser, `credal_subset`, the mixers and the blend-weight policies call
the checks in `core` instead of keeping their own copies.  Each phrase
below is part of one rule's error message, so it may appear in `core.py`
and in no other module.  Memos are tables on the `Instance` or the
`Criterion` they serve, freed with it, so no module may keep a
module-level function cache.  A held `Criterion` is the only way to rank
menus, and it compares benefit rows in one place, `Criterion._relation`,
of which the pair methods are the two-menu case, and the audit decides
it in four places only.  One kernel fills the benefit memo, and a
criterion's table of rows is read by its relation and the scenario bands
alone.  Each selectable axiom
is defined by one entry of the audit's spec table, the test oracles
`tests/reference_*.py` import no private name of the package, the README's
library example runs as written, and every snippet of the mutation catalog
`tests/mutants.py` still occurs once.
"""

import ast
import re
from pathlib import Path

import pytest

import menulearn
from menulearn import ALL_AXIOMS, Axiom, Verdict, criteria, errors
from menulearn.audit import _SPECS

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "menulearn"

RULE_PHRASES = (
    "unknown states",
    "missing states",
    "lottery over unknown prizes",
    "posterior over unknown states",
    "must lie in [0, 1]",
    "Invalid literal for Fraction",
)


@pytest.mark.parametrize("phrase", RULE_PHRASES)
def test_rule_is_stated_only_in_core(phrase):
    stating = sorted(path.name for path in SRC.glob("*.py") if phrase in path.read_text())
    assert stating == ["core.py"]


FUNCTION_CACHE = re.compile(
    r"lru_cache|functools\.cache\b|from\s+functools\s+import[^\n]*\bcache\b"
)


def test_no_module_keeps_a_function_cache():
    caching = sorted(
        path.name for path in SRC.glob("*.py") if FUNCTION_CACHE.search(path.read_text())
    )
    assert caching == []


def _private_menulearn_imports(path: Path) -> list[str]:
    """The underscore-prefixed names *path* imports from a `menulearn` module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "menulearn":
            names += [alias.name for alias in node.names if alias.name.startswith("_")]
            names += [part for part in node.module.split(".") if part.startswith("_")]
    return names


def test_reference_oracles_import_no_private_names():
    # An oracle that borrowed a fast path's helper would check it against itself.
    oracles = sorted((ROOT / "tests").glob("reference_*.py"))
    assert oracles
    assert {path.name: _private_menulearn_imports(path) for path in oracles} == {
        path.name: [] for path in oracles
    }


#: Per-call compare wrappers, gap one-liners, the static-priors oracle and
#: the old weight-error alias; a held `Criterion` replaces all of them.
REMOVED_NAMES = (
    "sl_compare",
    "bml_compare",
    "jml_compare",
    "hml_compare",
    "credal_min_gap",
    "credal_max_gap",
    "singleton_reduction",
    "BadWeightsError",
)


@pytest.mark.parametrize("module", [menulearn, criteria, errors], ids=lambda m: m.__name__)
def test_removed_names_stay_removed(module):
    assert [name for name in REMOVED_NAMES if hasattr(module, name)] == []


def _readers(attr: str) -> list[str]:
    """Each place the package reads or writes the attribute *attr*, or names or imports
    *attr*, as ``module:Class.function``."""
    readers = []

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, [*scope, child.name], module)
                continue
            if (
                isinstance(child, ast.Attribute) and child.attr == attr
                or isinstance(child, ast.Name) and child.id == attr
                or isinstance(child, ast.alias) and child.name == attr
            ):
                readers.append(f"{module}:{'.'.join(scope)}")
            visit(child, scope, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), [], path.name)
    return readers


def test_benefit_memo_is_filled_only_by_the_kernel():
    # One function evaluates a (menu, structure) benefit on a memo miss: past
    # the field the `Instance` declares, the kernel is the only code that
    # reads or writes the memo, and the per-benefit helper it absorbed is gone.
    assert set(_readers("_benefits")) == {"core.py:Instance", "evaluation.py:_benefit_rows"}
    assert _readers("_expected_best") == []


def test_benefit_table_is_read_by_the_relation_and_the_bands():
    # A criterion's rows over its distinct generators are one table: weak
    # preference and the scenario bands read it, and nothing else does.
    assert _readers("_table") == ["criteria.py:Criterion._relation", "rationalize.py:_bands"]


def test_rankings_reach_benefits_only_through_a_criterion():
    # The bands read the criterion's table, not the kernel's inputs or memo.
    names = ("_vector", "_expected_best", "_benefits", "_benefit_rows")
    assert [r for name in names for r in _readers(name) if r.startswith("rationalize.py:")] == []


def test_audit_decides_relations_in_four_places():
    # One relation over the corpus per audit call, the shrink's over its
    # candidate menus, one per weight over the corpus mixtures, and the
    # batches of dominance and ex-post randomization: no axiom decides its own.
    readers = [reader for reader in _readers("_relation") if reader.startswith("audit.py:")]
    assert readers == [
        "audit.py:_indifferent_pairs",
        "audit.py:_mixed_relation",
        "audit.py:_shrink_counterexample.still_violated",
        "audit.py:audit",
    ]


def test_each_selectable_axiom_has_one_spec_in_declaration_order():
    assert list(_SPECS) == [axiom for axiom in Axiom if axiom is not Axiom.CONTINUITY]
    assert frozenset(_SPECS) == ALL_AXIOMS


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["verdict"] is Verdict.INDIFFERENT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_snippet_occurs_once(mutant):
    # `tests/mutants.py` plants each fault by replacing this snippet.
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1
    assert all((ROOT / test.split("::")[0]).is_file() for test in mutant.tests)
