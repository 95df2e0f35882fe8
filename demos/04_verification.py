#!/usr/bin/env python3
"""Running the brute-force verifiers.

The oracle layer recomputes everything from definitions: enumeration sizes
from partition counting, first occurrences from fiber scans, and variant
uniqueness from exhaustive evaluation.  A deliberate perturbation shows the
harness actually detects failures.  Each report prints as ``thetasym
verify`` prints it: the status line, then one line per failure.
"""

from types import SimpleNamespace

import thetasym.oracle as oracle
from thetasym import (
    PLUS,
    TowerContext,
    verify_counts,
    verify_f1,
    verify_variant_uniqueness,
)

print("== enumeration counts against partition counting ==")
report = verify_counts(8)
print(f"suite counts: {report}")

print()
print("== closed-form first occurrence against fiber scanning ==")
report = verify_f1(5)
print(f"suite f1: {report}")
print(f"  JSON: {report.to_json()[:80]}...")

print()
print("== injected failure is caught ==")
# The oracle is handed closed-form indices one too high; it must notice.
closed_form = oracle.first_occurrence_unipotent


def shifted(*args):
    occ = closed_form(*args)
    return SimpleNamespace(index=occ.index + 1, lift=occ.lift)


oracle.first_occurrence_unipotent = shifted
try:
    report = verify_f1(1)
finally:
    oracle.first_occurrence_unipotent = closed_form
print(f"suite f1: {report}")

print()
print("== transpose-variant uniqueness ==")
report = verify_variant_uniqueness(2, TowerContext(eps_minus_one=PLUS))
print(f"suite variants: {report}")
