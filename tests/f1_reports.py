"""Digest of the f1 sweep's reports, with the closed form intact and with its index shifted.

Usage::

    python tests/f1_reports.py SRC_DIR > reports.txt

``SRC_DIR`` is the ``src`` directory of the checkout to run (it goes first
on ``sys.path``).  It runs ``oracle.verify_f1`` at every max rank 0 to 12,
first as it is and then with every closed-form index one too high, as
``shift_closed_form_index`` in ``tests/test_oracle.py`` makes it, so that
every check fails.  Each stdout line is ``mode rank checked failures
ordered unordered``, where ``ordered`` digests the failures in their order
(input, expected and actual text) and ``unordered`` digests them sorted;
the total digest of all lines, the check and failure counts and the time go
to stderr.  Run it on two checkouts and ``diff`` the outputs: a change that
keeps every report gives the same lines, and one that keeps the failures
but not their order moves only the ``ordered`` digests of the shifted runs.
This is a script, not a test: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

MAX_RANK = 12


def _digest(failures: list[dict]) -> str:
    return hashlib.sha256(json.dumps(failures, sort_keys=True).encode()).hexdigest()[:16]


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tests/f1_reports.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    from thetasym import oracle

    closed_form = oracle.first_occurrence_unipotent

    def shifted(*args):
        occ = closed_form(*args)
        return SimpleNamespace(index=occ.index + 1, lift=occ.lift)

    start = time.monotonic()
    total, checks, failures = hashlib.sha256(), 0, 0
    for mode, first_occurrence in (("intact", closed_form), ("shifted", shifted)):
        oracle.first_occurrence_unipotent = first_occurrence
        for rank in range(MAX_RANK + 1):
            report = oracle.verify_f1(rank)
            unordered = sorted(report.failures, key=lambda f: json.dumps(f, sort_keys=True))
            line = (f"{mode} {rank:02d} {report.checked} {len(report.failures)} "
                    f"{_digest(report.failures)} {_digest(unordered)}\n")
            total.update(line.encode())
            sys.stdout.write(line)
            checks += report.checked
            failures += len(report.failures)
    oracle.first_occurrence_unipotent = closed_form
    print(f"{2 * (MAX_RANK + 1)} runs, {checks} checks, {failures} failures, total {total.hexdigest()}, "
          f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
