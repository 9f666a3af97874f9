"""A replayable mutation catalog: planted faults that named tests must catch.

Each entry names a file under ``src/menulearn``, an exact snippet of it, the
snippet that replaces it (the fault) and the test node ids that must fail
once it is planted.  Run from anywhere, stdlib only::

    python tests/mutants.py [SUBSTRING ...]

With substrings given, only the mutants whose name contains one of them run
(``python tests/mutants.py "swapped pair" numerator``); with none, all do.
For each mutant the script copies ``src/`` to a temporary directory,
replaces the snippet (which must occur exactly once), runs the node ids
with ``pytest -x`` against the copy, under the hypothesis profile
``mutants`` of ``conftest.py`` (no shrinking, no example database), and
counts the mutant killed when a test fails.  It first runs every node id
of the selected mutants against an unmutated copy, which must pass.  It
prints one row per mutant and exits 1 unless every selected mutant is
killed, or when none is selected.  pytest does not collect this file;
`tests/test_layout.py` checks that every snippet still occurs exactly
once, so a refactor that moves the code updates or retires its mutants.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "mix_lotteries weighs y by a, not b - a",
        "evaluation.py",
        "    rest = b - a\n",
        "    rest = a\n",
        ("tests/test_kernel.py::TestMixturesAgainstReference",),
    ),
    Mutant(
        "lottery-mixture table read under the swapped pair (y, x)",
        "evaluation.py",
        "        lottery = table.get((x, y))\n",
        "        lottery = table.get((y, x))\n",
        ("tests/test_kernel.py::TestDerivedMemos::test_mixed_acts_and_menus_equal_the_public_mixers",),
    ),
    Mutant(
        "one mixture table shared by every weight",
        "audit.py",
        "    weight = (alpha.numerator, alpha.denominator)\n",
        "    weight = None\n",
        ("tests/test_kernel.py::TestDerivedMemos::test_mixed_acts_and_menus_equal_the_public_mixers",),
    ),
    Mutant(
        "act interning returns the un-interned act",
        "core.py",
        "        return self._held.setdefault(act, act)\n",
        "        return self._held.setdefault(act, act) and act\n",
        ("tests/test_kernel.py::TestInterning::test_acts_of_interned_menus_are_the_held_acts",),
    ),
    Mutant(
        "integer measure core without its total check",
        "core.py",
        "        _check_total(sum(numerators.values()), total, what)\n",
        "",
        ("tests/test_core.py::TestInputRules::test_integer_core_states_the_rule_as_the_public_constructor",),
    ),
    Mutant(
        "integer form left unreduced",
        "core.py",
        "    divisor = gcd(total, *numerators.values())\n",
        "    divisor = 1\n",
        ("tests/test_core.py::TestIntegerForm::test_agrees_with_the_fraction_definitions",),
    ),
    Mutant(
        "act vectors without the rescale to their common denominator",
        "evaluation.py",
        "            entry = table[key] = (common, tuple([num * (common // den) for num, den in parts]))\n",
        "            entry = table[key] = (common, tuple([num for num, den in parts]))\n",
        ("tests/test_kernel.py::TestIntegerKernel::test_coprime_denominators_match_reference",),
    ),
    Mutant(
        "act vectors in outcomes order, not the instance's state order",
        "evaluation.py",
        "            parts = [inst._lottery_numerator(key.lottery(state)) for state in inst.states]\n",
        "            parts = [inst._lottery_numerator(lottery) for _, lottery in key.outcomes]\n",
        ("tests/test_kernel.py::TestIntegerKernel::test_vectors_follow_the_instance_state_order",),
    ),
    Mutant(
        "best act taken without cross-multiplying",
        "evaluation.py",
        "        if best is None or value * best_den > best * den:\n",
        "        if best is None or value > best:\n",
        ("tests/test_kernel.py::TestIntegerKernel::test_equal_utilities_over_different_denominators",),
    ),
    Mutant(
        "dominance relation ignores strict",
        "evaluation.py",
        "        beaten = list(map(and_, beaten, _at_most(keys, strict)))\n",
        "        beaten = list(map(and_, beaten, _at_most(keys)))\n",
        ("tests/test_kernel.py::TestDerivedMemos::test_weak_and_strict_dominance_are_separate_entries",),
    ),
    Mutant(
        "compare reads its backward bit from the wrong entry",
        "criteria.py",
        "        return Verdict.from_directions(forward & 2, backward & 1)\n",
        "        return Verdict.from_directions(forward & 2, forward & 1)\n",
        ("tests/test_kernel.py::TestCorpusRelations::test_weak_preference_bits",),
    ),
    Mutant(
        "weakly_prefers reads bit 0 instead of bit 1",
        "criteria.py",
        "        return bool(self._relation((F, G))[0] & 2)\n",
        "        return bool(self._relation((F, G))[0] & 1)\n",
        ("tests/test_kernel.py::TestCorpusRelations::test_weak_preference_bits",),
    ),
    Mutant(
        "fired dominance pairs one position late",
        "audit.py",
        "        (i * s + k, 1, holds, lambda _, pair=(corpus[i], singletons[k]): (pair, None, None))\n",
        "        (i * s + k + 1, 1, holds, lambda _, pair=(corpus[i], singletons[k]): (pair, None, None))\n",
        ("tests/test_audit.py::TestReferenceAudit::test_dominance_at_every_cap",),
    ),
    Mutant(
        "dominance and ex-post consequents read only the forward bit",
        "audit.py",
        "            yield up[i] >> j & up[j] >> i & 1\n",
        "            yield up[i] >> j & 1\n",
        ("tests/test_audit.py::TestReferenceAudit::test_dominance_and_randomization_read_both_bits",),
    ),
    Mutant(
        "dominance unions all built before the scan",
        "audit.py",
        "    pairs = iter(pairs)\n",
        "    pairs = iter(list(pairs))\n",
        ("tests/test_audit.py::TestReferenceAudit::test_capped_dominance_builds_one_batch",),
    ),
    Mutant(
        "independence compares only the forward bit",
        "audit.py",
        "            kept = [~(d[i] >> j * n ^ forward | d[j] >> i * n ^ backward) & full for d in diagonals]\n",
        "            kept = [~(d[i] >> j * n ^ forward) & full for d in diagonals]\n",
        ("tests/test_audit.py::TestReferenceAudit::test_independence_reads_the_mixtures_at_each_weight",),
    ),
    Mutant(
        "independence reads the first weight's mixed relation for every weight",
        "audit.py",
        "            kept = [~(d[i] >> j * n ^ forward | d[j] >> i * n ^ backward) & full for d in diagonals]\n",
        "            kept = [~(d[i] >> j * n ^ forward | d[j] >> i * n ^ backward) & full for d in diagonals[:1] * w]\n",
        ("tests/test_audit.py::TestReferenceAudit::test_independence_reads_the_mixtures_at_each_weight",),
    ),
    Mutant(
        "mixed relation read at a transposed position",
        "audit.py",
        "mix[i * n + k] & stride << k for k in range(n)",
        "mix[k * n + i] & stride << k for k in range(n)",
        ("tests/test_audit.py::TestReferenceAudit::test_seeded_criteria",),
    ),
    Mutant(
        "FMM consequent reads weak, not strict, preference",
        "audit.py",
        "        return flat([mix[i * n + k] >> j * n & full & ~no_better[k] for k in range(n)])\n",
        "        return flat([mix[i * n + k] >> j * n & full for k in range(n)])\n",
        ("tests/test_audit.py::TestReferenceAudit::test_mixing_must_keep_the_ranking_strict",),
    ),
    Mutant(
        "shrink accepts a violation at any tuple of the witness menus",
        "audit.py",
        "        return witness in violated\n",
        "        return next(violated, None) is not None\n",
        (
            "tests/test_audit.py::TestReferenceAudit::test_mixing_must_keep_the_ranking_strict",
            "tests/test_audit.py::TestReferenceAudit::test_flipped_criterion_fails_every_axiom",
        ),
    ),
    Mutant(
        "shrink reruns the rule with the unshrunk menus' relation",
        "audit.py",
        "        _, rows = fired(cmp, candidate, cmp._relation(candidate), [(alpha, betas)])\n",
        "        _, rows = fired(cmp, candidate, cmp._relation(menus), [(alpha, betas)])\n",
        ("tests/test_audit.py::TestReferenceAudit::test_flipped_criterion_fails_every_axiom",),
    ),
    Mutant(
        "pair rows with the diagonal compressed by >> i",
        "comparative.py",
        "    return mask & (1 << i) - 1 | mask >> (i + 1) << i\n",
        "    return mask & (1 << i) - 1 | mask >> i << i\n",
        (
            "tests/test_comparative.py::TestReferenceComparative::test_swapped_roles_fail_every_check",
            "tests/test_audit.py::TestReferenceAudit::test_flipped_criterion_fails_every_axiom",
        ),
    ),
    Mutant(
        "scan witness taken from the highest violated bit",
        "comparative.py",
        "            low = (violated & -violated).bit_length() - 1\n",
        "            low = violated.bit_length() - 1\n",
        (
            "tests/test_comparative.py::TestMaskScan::test_cap_on_the_violation_and_on_a_row_boundary",
            "tests/test_comparative.py::TestMaskScan::test_random_rows_and_caps",
        ),
    ),
    Mutant(
        "simplex ratio test cross-multiplied the wrong way round",
        "comparative.py",
        "(row[-1] * best[entering], basis[i])\n"
        "                                      < (best[-1] * row[entering], basis[leaving])",
        "(row[-1] * row[entering], basis[i])\n"
        "                                      < (best[-1] * best[entering], basis[leaving])",
        ("tests/test_comparative.py::TestFractionFreeSimplex::test_convex_weights_equal_the_fraction_simplex",),
    ),
    Mutant(
        "converse skips position 0",
        "evaluation.py",
        "    for i, row in enumerate(relation):\n",
        "    for i, row in enumerate(relation[1:], 1):\n",
        (
            "tests/test_kernel.py::TestCorpusRelations::test_dominance_bits",
            "tests/test_comparative.py::TestReferenceComparative::test_swapped_roles_fail_every_check",
        ),
    ),
    Mutant(
        "lottery-consistency antecedent takes strict utility order",
        "rationalize.py",
        "        if utility[xm] >= utility[ym]\n",
        "        if utility[xm] > utility[ym]\n",
        ("tests/test_rationalize.py::TestConsistency::test_reports_match_reference",),
    ),
    Mutant(
        "band high end counted with bisect_left",
        "rationalize.py",
        "    upto = [bisect_right(cuts, band.high) for band in bands]\n",
        "    upto = [bisect_left(cuts, band.high) for band in bands]\n",
        (
            "tests/test_rationalize.py::TestConsistency::test_grid_lottery_tied_with_a_band_end_does_not_separate",
        ),
    ),
    Mutant(
        "separation test with the pair's roles swapped",
        "rationalize.py",
        "        if upto[j] < below[i]\n",
        "        if upto[i] < below[j]\n",
        (
            "tests/test_rationalize.py::TestConsistency::test_grid_lottery_tied_with_a_band_end_does_not_separate",
            "tests/test_rationalize.py::TestConsistency::test_reports_match_reference",
        ),
    ),
    Mutant(
        "lottery table keyed without the string-only guard",
        "fileformat.py",
        "        if type(lottery_data) is dict and all(type(raw) is str for raw in lottery_data.values()):\n",
        "        if type(lottery_data) is dict:\n",
        ("tests/test_fileformat.py::TestSharedLotteries::test_json_true_after_1_is_rejected_at_its_act",),
    ),
    Mutant(
        "integer loader skips the prize check of zero-probability labels",
        "fileformat.py",
        "            fresh.append((state, lottery_data))\n",
        "            fresh.append((state, lottery))\n",
        ("tests/test_fileformat.py::TestParsing::test_zero_probability_on_an_unknown_prize_is_rejected_at_its_act",),
    ),
    Mutant(
        "band reads a member's generator one index off in the generator numbering",
        "rationalize.py",
        "        groups = [[scaled[k] for k in member] for member in cmp._indices]\n",
        "        groups = [[scaled[k - 1] for k in member] for member in cmp._indices]\n",
        ("tests/test_rationalize.py::TestCorpusBands::test_corpus_bands_equal_per_menu_bands",),
    ),
    Mutant(
        "band end read from the wrong member",
        "rationalize.py",
        "min(map(max, groups))",
        "min(map(max, groups[-1:]))",
        ("tests/test_rationalize.py::TestCorpusBands::test_corpus_bands_equal_per_menu_bands",),
    ),
    Mutant(
        "relation skips a member's last generator",
        "criteria.py",
        "            for k in member:\n",
        "            for k in member[:-1]:\n",
        (
            "tests/test_kernel.py::TestCorpusRelations::test_weak_preference_bits",
            "tests/test_criteria.py::TestAgainstReference::test_held_criterion_matches_reference",
        ),
    ),
    Mutant(
        "hoisted act vectors read from the first act only",
        "evaluation.py",
        "                acts = acts or [_vector(f, inst) for f in menu]\n",
        "                acts = acts or [_vector(menu.acts[0], inst)]\n",
        ("tests/test_kernel.py::TestIntegerKernel::test_small_menus_and_structures_match_reference",),
    ),
    Mutant(
        "weight-1 blend returns minmax",
        "rationalize.py",
        "        if alpha == 1:\n            return band.maxmin\n",
        "        if alpha == 1:\n            return band.minmax\n",
        ("tests/test_rationalize.py::TestRationalizedValue::test_full_weight_on_maxmin",),
    ),
)


def _run(src: Path, *args: str) -> subprocess.CompletedProcess:
    """Run Python with *args*, importing `menulearn` from *src*."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


def _pytest(src: Path, tests) -> int:
    """Run *tests* against the package under *src*; the pytest exit code."""
    args = ("-x", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=mutants", *tests)
    return _run(src, "-m", "pytest", *args).returncode


def main(names: list[str]) -> int:
    started = time.perf_counter()
    mutants = [m for m in MUTANTS if not names or any(name in m.name for name in names)]
    if not mutants:
        print(f"no mutant name contains any of {names}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="menulearn-mutants-") as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        imported = _run(src, "-c", "import menulearn; print(menulearn.__file__)").stdout
        if not Path(imported.strip()).is_relative_to(src):
            print(f"menulearn is imported from {imported.strip()}, not the copy", file=sys.stderr)
            return 1
        every_test = sorted({test for mutant in mutants for test in mutant.tests})
        if _pytest(src, every_test) != 0:
            print("the catalog's tests fail on the unmutated sources", file=sys.stderr)
            return 1
        survivors = 0
        for mutant in mutants:
            target = src / "menulearn" / mutant.file
            original = target.read_text()
            if original.count(mutant.old) != 1:
                print(f"{mutant.name}: snippet does not occur exactly once", file=sys.stderr)
                return 1
            target.write_text(original.replace(mutant.old, mutant.new))
            try:
                code = _pytest(src, mutant.tests)
            finally:
                target.write_text(original)
            killed = code == 1
            survivors += not killed
            verdict = "killed" if killed else f"SURVIVED (pytest exit {code})"
            print(f"{verdict:<28} {mutant.file:<14} {mutant.name}")
    elapsed = time.perf_counter() - started
    print(f"{len(mutants) - survivors}/{len(mutants)} killed in {elapsed:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
