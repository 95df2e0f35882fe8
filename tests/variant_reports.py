"""Digest of the variant sweep's reports over a fixed set of contexts.

Usage::

    python tests/variant_reports.py SRC_DIR > reports.txt

``SRC_DIR`` is the ``src`` directory of the checkout to run (it goes first
on ``sys.path``).  The contexts are the rank-2 sweep under every one of the
81 settings of the four orientation bits (each +, - or open) and the
rank-3 sweep with no bits, ``+ + + +`` and ``+ - - +``, each under both
eps(-1): 168 runs of ``oracle.verify_variant_uniqueness``.  Each stdout
line is ``index rank eps bits checked failures digest``, where the digest
covers the failures in their order (input, expected and actual text); the
total digest of all lines, the check and failure counts and the time go to
stderr.  Run it on two checkouts and ``diff`` the outputs: a change that
keeps every report gives the same lines.  This is a script, not a test:
pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from itertools import product
from pathlib import Path


def _contexts() -> list[tuple[int, tuple]]:
    """The (rank, TowerContext fields) of each run, in output order."""
    from thetasym.catalog import MINUS, PLUS

    out = []
    for eps in (PLUS, MINUS):
        out += [(2, (eps, *bits)) for bits in product((None, PLUS, MINUS), repeat=4)]
    for eps in (PLUS, MINUS):
        out += [(3, (eps, *bits)) for bits in ((None,) * 4, (PLUS,) * 4, (PLUS, MINUS, MINUS, PLUS))]
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tests/variant_reports.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    from thetasym.oracle import verify_variant_uniqueness
    from thetasym.theta import TowerContext

    start = time.monotonic()
    total, checks, failures = hashlib.sha256(), 0, 0
    contexts = _contexts()
    for index, (rank, fields) in enumerate(contexts):
        report = verify_variant_uniqueness(rank, TowerContext(*fields))
        digest = hashlib.sha256(json.dumps(report.failures, sort_keys=True).encode()).hexdigest()[:16]
        bits = " ".join("." if bit is None else "+-"[bit < 0] for bit in fields)
        line = f"{index:03d} {rank} {bits} {report.checked} {len(report.failures)} {digest}\n"
        total.update(line.encode())
        sys.stdout.write(line)
        checks += report.checked
        failures += len(report.failures)
    print(f"{len(contexts)} contexts, {checks} checks, {failures} failures, total {total.hexdigest()}, "
          f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
