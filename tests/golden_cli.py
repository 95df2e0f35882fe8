"""Golden capture of the command line: one digest line per request of a fixed deck.

Usage::

    python tests/golden_cli.py SRC_DIR > digests.txt

``SRC_DIR`` is the ``src`` directory of the checkout to run (it goes first
on ``sys.path``).  The deck is drawn with a fixed seed from the library's
own enumerations and runs through ``thetasym.cli.main`` in-process: every
verb and output format, the square class of -1 given both by
``--eps-minus-one`` and by ``--q``, seeded random ``--orient-*`` bits,
domain and usage refusals, the failing
``verify --suite variants --eps-minus-one -`` run, and the deep verifier
runs (``counts`` to rank 12, ``f1`` to rank 13, ``variants`` to rank 4),
which took 7 to 10 of its 18 to 26 s on a 2-vCPU Intel Xeon KVM guest with
Python 3.11.7 (the whole deck took up to 41 s there under load).  The deck ends with the
trivial ``sp(28)`` branch table and a rank-30 table over the sweep bound.
Each stdout line is ``index digest exit argv`` (the digest covers stdout,
stderr and the exit code of that request), and the digest of all of them
goes to stderr.  Run it on two checkouts and ``diff`` the outputs to see
which request changed.  This is a script, not a test: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import io
import random
import shlex
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SEED = 20260418
FORMATS = ("pretty", "json", "csv")
Q_VALUES = (3, 5, 7, 9, 11, 13, 25, 27, 81, 125, 343, 625)
ORIENT_FLAGS = ("--orient-left", "--orient-right", "--orient-left-alt", "--orient-right-alt")


def _deck(rng: random.Random) -> list[list[str]]:
    from thetasym.catalog import (
        MINUS,
        PLUS,
        enumerate_labels,
        format_label,
        o_even,
        o_odd,
        sp,
        unipotent_label,
    )
    from thetasym.core import SymbolFamily, enumerate_symbols, format_symbol
    from thetasym.ggp import default_rho_catalog

    SP_, OP_, OM_ = SymbolFamily.SP_UNIPOTENT, SymbolFamily.O_EVEN_PLUS, SymbolFamily.O_EVEN_MINUS

    def symbols(max_rank, family):
        return [s for r in range(max_rank + 1) for s in enumerate_symbols(r, family)]

    def fmt():
        return ["--format", rng.choice(FORMATS)]

    def eps():
        """Either flag for the square class of -1, and the sign it names."""
        if rng.random() < 0.5:
            e = rng.choice("+-")
            return ["--eps-minus-one", e], PLUS if e == "+" else MINUS
        q = rng.choice(Q_VALUES)
        return ["--q", str(q)], PLUS if q % 4 == 1 else MINUS

    def orient():
        return [x for flag in ORIENT_FLAGS if rng.random() < 0.5 for x in (flag, rng.choice("+-"))]

    deck: list[list[str]] = [["--version"], [], ["no-such-verb"]]

    # symbols-enumerate: every family name and format, plus refusals
    for rank in range(8):
        for family in ("sp", "o+", "o-", "o-odd"):
            for f in FORMATS:
                deck.append(["symbols-enumerate", "--rank", str(rank), "--family", family, "--format", f])
    deck += [
        ["symbols-enumerate", "--rank", "-1", "--family", "sp"],
        ["symbols-enumerate", "--rank", "60", "--family", "o-"],
        ["symbols-enumerate", "--rank", "2", "--family", "o"],
        ["symbols-enumerate", "--rank", "2"],
    ]

    # theta-fiber: symplectic sources on both towers, even sources refused
    for lam in symbols(3, SP_):
        for sign in "+-":
            for target in range(6):
                deck.append(["theta-fiber", "--symbol", format_symbol(lam), "--sign", sign,
                             "--target-rank", str(target), *fmt()])
    for lam in symbols(2, OP_) + symbols(2, OM_):
        deck.append(["theta-fiber", "--symbol", format_symbol(lam), "--sign", rng.choice("+-"),
                     "--target-rank", "2"])
    deck += [
        ["theta-fiber", "--symbol", "[1,0|1]", "--sign", "+", "--target-rank", "-2"],
        ["theta-fiber", "--symbol", "[0|]", "--sign", "+", "--target-rank", "60"],
    ]

    # theta-first: both directions, every source family on both tower signs
    for lam in symbols(5, SP_):
        for sign in "+-":
            deck.append(["theta-first", "--symbol", format_symbol(lam), "--sign", sign,
                         "--direction", "sp-to-o", *fmt()])
    for lam in symbols(5, OP_) + symbols(5, OM_) + symbols(2, SP_):
        for sign in "+-":
            deck.append(["theta-first", "--symbol", format_symbol(lam), "--sign", sign,
                         "--direction", "o-to-sp", *fmt()])
    for lam in symbols(2, OP_) + symbols(2, OM_):
        deck.append(["theta-first", "--symbol", format_symbol(lam), "--sign", "+",
                     "--direction", "sp-to-o"])
    for text in ("[1,0|1", "1,0|1]", "[1,0,1]", "[1,1|]", "[a|]", "[1||0]", "[-1|]",
                 "[0|0]", "[" + "9" * 19 + "|]", " [ 2 , 0 | 1 ] "):
        deck.append(["theta-first", "--symbol", text, "--sign", "+", "--direction", "sp-to-o"])

    # theta-cuspidal
    for k in range(9):
        for variant in ("down", "up"):
            for f in FORMATS:
                deck.append(["theta-cuspidal", "--k", str(k), "--variant", variant, "--format", f])
    deck += [
        ["theta-cuspidal", "--k", "-1", "--variant", "down"],
        ["theta-cuspidal", "--k", "500000", "--variant", "up"],
        ["theta-cuspidal", "--k", "2", "--variant", "sideways"],
    ]

    # ggp-mult: random Fourier-Jacobi and Bessel pairs, descriptors included
    pools: dict = {}

    def label(group, e):
        key = (group, e)
        if key not in pools:
            pools[key] = list(enumerate_labels(group, e, default_rho_catalog(group.rank)))
        return rng.choice(pools[key]) if pools[key] else None

    def sign():
        return rng.choice((PLUS, MINUS))

    for _ in range(2600):
        flags, e = eps()
        if rng.random() < 0.5:
            case, left, right = "fj", label(sp(rng.randint(0, 3)), e), label(sp(rng.randint(0, 3)), e)
        else:
            case = "bessel"
            left = label(o_odd(rng.randint(0, 3), sign()), e)
            right = label(o_even(rng.randint(0, 3), sign()), e)
            if right is None:
                continue
        if rng.random() < 0.05:  # a pair outside the case
            case = "bessel" if case == "fj" else "fj"
        deck.append(["ggp-mult", "--left", format_label(left), "--right", format_label(right),
                     "--case", case, *flags, *orient(), *fmt()])

    # ggp-branch: symplectic and odd-to-even orthogonal restrictions
    for _ in range(700):
        flags, e = eps()
        n = rng.randint(0, 3)
        lam = rng.choice(enumerate_symbols(n, SP_))
        if rng.random() < 0.5:
            pi, target = unipotent_label(sp(n), lam), sp(n)
        else:
            pi = unipotent_label(o_odd(n, sign()), lam, sign(), e)
            target = o_even(n, sign())
        deck.append(["ggp-branch", "--pi", format_label(pi), "--target", str(target),
                     *flags, *orient(), *fmt()])
    sp2 = "sp(2): rho=trivial:0:reg ; L=[1,0|1] ; L'=[|]"
    deck += [
        ["ggp-branch", "--pi", sp2, "--target", "o+(2)", "--eps-minus-one", "+"],
        ["ggp-branch", "--pi", sp2, "--target", "sp(4)", "--eps-minus-one", "+"],
        ["ggp-branch", "--pi", sp2, "--target", "sp(2)"],
        ["ggp-branch", "--pi", sp2, "--target", "sp(2)", "--q", "5", "--eps-minus-one", "+"],
        ["ggp-branch", "--pi", sp2, "--target", "sp(2)", "--q", "15"],
        ["ggp-branch", "--pi", sp2, "--target", "sp(2)", "--q", str(2**32 + 15)],
        ["ggp-branch", "--pi", "sp(2): rho=r:1:reg ; L=[0|] ; L'=[|]", "--target", "sp(2)",
         "--eps-minus-one", "+"],
        ["ggp-branch", "--pi", sp2, "--target", "sp(60)", "--eps-minus-one", "-"],
        ["ggp-branch", "--pi", sp2, "--target", "x(2)", "--eps-minus-one", "-"],
    ]
    for text in ("sp(2) rho=trivial:0:reg ; L=[1,0|1] ; L'=[|]",
                 "sp(3): rho=trivial:0:reg ; L=[1,0|1] ; L'=[|]",
                 "sp(2): rho=trivial:0:reg ; L=[1,0|1]",
                 "sp(2): rho=trivial:0:reg ; L=[1,0|1] ; L'=[|] ; L=[1|]",
                 "sp(2): rho=trivial:0:reg ; L=[1,0|1] ; L'=[|] ; eps=+",
                 "o+(3): rho=trivial:0:reg ; L=[1|] ; L'=[0|]",
                 "o+(2): rho=trivial:0:reg ; L=[1,0|] ; L'=[|]",
                 "sp(2): rho=trivial:0 ; L=[1,0|1] ; L'=[|]",
                 "sp(2): rho=trivial:0:reg ; L=[1,0|1] ; L'=[|] ; x=1"):
        deck.append(["ggp-mult", "--left", text, "--right", sp2, "--case", "fj", "--eps-minus-one", "+"])

    # verify: every suite, both eps flags, orientation bits, refusals
    for suite in ("f1", "counts"):
        for r in range(6):
            deck.append(["verify", "--suite", suite, "--max-rank", str(r)])
    for r in range(3):
        deck.append(["verify", "--suite", "variants", "--max-rank", str(r)])
        for _ in range(4):
            flags, _e = eps()
            deck.append(["verify", "--suite", "variants", "--max-rank", str(r), *flags, *orient()])
    deck.append(["verify", "--suite", "variants", "--max-rank", "3", "--eps-minus-one", "-",
                 *(x for flag in ORIENT_FLAGS for x in (flag, "+"))])
    deck += [
        ["verify", "--suite", "f1", "--max-rank", "2", "--q", "5"],
        ["verify", "--suite", "counts", "--max-rank", "2", "--orient-left", "+"],
        ["verify", "--suite", "variants", "--max-rank", "1", "--q", "5", "--eps-minus-one", "+"],
        ["verify", "--suite", "f1", "--max-rank", "-1"],
        ["verify", "--suite", "counts", "--max-rank", "23"],
        ["verify", "--suite", "bogus", "--max-rank", "1"],
    ]
    # the deep verifier runs: the counts, f1 and variants reach of the acceptance suite
    deck += [
        ["verify", "--suite", "counts", "--max-rank", "12"],
        ["verify", "--suite", "f1", "--max-rank", "13"],
        ["verify", "--suite", "variants", "--max-rank", "4"],
    ]
    # appended, so that earlier indices stay put: branch tables on either side of the sweep bound
    deck += [
        ["ggp-branch", "--pi", "sp(28): rho=trivial:0:reg ; L=[14|] ; L'=[|]", "--target", "sp(28)",
         "--eps-minus-one", "+"],
        ["ggp-branch", "--pi", "sp(60): rho=trivial:0:reg ; L=[30|] ; L'=[|]", "--target", "sp(60)",
         "--eps-minus-one", "+"],
    ]
    return deck


def _run(argv: list[str]) -> str:
    from thetasym.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return f"{hashlib.sha256(blob).hexdigest()[:16]} {code}"


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tests/golden_cli.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    start = time.monotonic()
    deck = _deck(random.Random(SEED))
    total = hashlib.sha256()
    for index, argv in enumerate(deck):
        line = f"{index:05d} {_run(argv)} {shlex.join(argv)}\n"
        total.update(line.encode())
        sys.stdout.write(line)
    print(f"{len(deck)} requests, total {total.hexdigest()}, "
          f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
