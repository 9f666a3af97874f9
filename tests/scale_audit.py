"""Wall time, status and report digest of large `cross_audit` runs.

For corpus sizes 40 and 60 and seeds 0-2, audits the instance drawn by
``random_instance(random.Random(seed))`` twice: uncapped
(``max_tuples=10**12``) and with the default cap.  Each call gets a fresh
instance, so no memo is warm.  Run from the repository root, stdlib only::

    PYTHONPATH=src python tests/scale_audit.py [CORPUS_SIZE ...]

One line per run: corpus size, seed, cap, wall seconds
(`time.perf_counter`), whether every entry passed, the truncated axioms
and the first 16 hex digits of a SHA-256 over the report records and the
shrunk counterexamples.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time

from menulearn.audit import AuditConfig, cross_audit, random_instance

UNCAPPED = 10**12


def digest(report) -> str:
    """A hash of every record and every counterexample menu of *report*."""
    witnesses = [
        [repr(menu) for menu in result.counterexample or ()]
        for entry in report.entries
        for result in entry.report.results
    ]
    payload = json.dumps([report.to_records(), witnesses], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def main(sizes: list[int]) -> None:
    for size in sizes:
        for seed in range(3):
            for cap in (UNCAPPED, AuditConfig.max_tuples):
                inst = random_instance(random.Random(seed))
                config = AuditConfig(corpus_size=size, seed=seed, max_tuples=cap)
                started = time.perf_counter()
                report = cross_audit(inst, seed=seed, config=config)
                elapsed = time.perf_counter() - started
                truncated = [
                    f"{entry.criterion}.{result.axiom.value}"
                    for entry in report.entries
                    for result in entry.report.truncations
                ]
                label = "uncapped" if cap == UNCAPPED else f"cap={cap}"
                print(
                    f"corpus={size} seed={seed} {label:<11} {elapsed:6.2f} s"
                    f"  all_passed={report.all_passed}"
                    f"  truncated={','.join(truncated) or '-'}  digest={digest(report)}"
                )


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [40, 60])
