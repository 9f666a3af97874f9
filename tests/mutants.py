"""A replayable mutation catalog: planted faults that named tests must catch.

Each entry names a file under ``src/menulearn``, an exact snippet of it, the
snippet that replaces it (the fault) and the test node ids that must fail
once it is planted.  Run from anywhere, stdlib only::

    python tests/mutants.py

For each mutant the script copies ``src/`` to a temporary directory,
replaces the snippet (which must occur exactly once), runs the node ids
with ``pytest -x`` against the copy and counts the mutant killed when a test
fails.  It first runs every node id against an unmutated copy, which must
pass.  It prints one row per mutant and exits 1 unless every mutant is
killed.  pytest does not collect this file; `tests/test_layout.py` checks
that every snippet still occurs exactly once, so a refactor that moves the
code updates or retires its mutants.
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
        "one mixture table shared by every weight",
        "audit.py",
        "    weight = (alpha.numerator, alpha.denominator)\n",
        "    weight = None\n",
        ("tests/test_kernel.py::TestDerivedMemos::test_mixed_acts_and_menus_equal_the_public_mixers",),
    ),
    Mutant(
        "act interning returns the un-interned act",
        "core.py",
        "        return self._acts.setdefault(act, act)\n",
        "        return self._acts.setdefault(act, act) and act\n",
        ("tests/test_kernel.py::TestInterning::test_acts_of_interned_menus_are_the_held_acts",),
    ),
    Mutant(
        "integer measure core without its total check",
        "core.py",
        '        object.__setattr__(dist, "probs", _settled(pairs, sum(numerators.values()), total, what))\n',
        '        object.__setattr__(dist, "probs", tuple(sorted(pairs)))\n',
        ("tests/test_core.py::TestInputRules::test_integer_core_states_the_rule_as_the_public_constructor",),
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
    return _run(src, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests).returncode


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="menulearn-mutants-") as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        imported = _run(src, "-c", "import menulearn; print(menulearn.__file__)").stdout
        if not Path(imported.strip()).is_relative_to(src):
            print(f"menulearn is imported from {imported.strip()}, not the copy", file=sys.stderr)
            return 1
        every_test = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if _pytest(src, every_test) != 0:
            print("the catalog's tests fail on the unmutated sources", file=sys.stderr)
            return 1
        survivors = 0
        for mutant in MUTANTS:
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
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} killed in {elapsed:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
