"""Workload definitions and the child-process side of the benchmark.

``run.py`` starts this file as a fresh interpreter with the package's
``src`` directory on ``PYTHONPATH``; it never imports thetasym itself.
Modes (each prints one JSON object on stdout):

    workloads.py setup WORKLOAD --seed N [--tiny]
        import the package and build the workload inputs, nothing else;
    workloads.py sweep WORKLOAD [--tiny] [--trace]
        run one verifier sweep, timed, and gate its report;
    workloads.py cli-mix --seed N --seconds S [--tiny] [--trace]
        run the closed-loop CLI mix (one client, one request at a time);
    workloads.py cli ARGS...
        run ``thetasym ARGS`` in this process with the tracer installed
        and print the trace summary as the last line of stderr.

The sweeps are exhaustive up to a fixed rank and do not depend on the seed;
only the CLI mix draws its requests from it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time

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
from thetasym.core import SymbolFamily, count_symbols, enumerate_symbols, format_symbol
from thetasym.theta import TowerContext

from speed import reference_seconds

HERE = os.path.abspath(__file__)
TRACE_MARKER = "bench-trace-summary "

#: Largest rank of each sweep; the tiny size is for the self-test.
SWEEP_RANK = {"f1-sweep": 5, "variant-sweep": 2}
TINY_SWEEP_RANK = {"f1-sweep": 2, "variant-sweep": 1}

SP_, OP_, OM_ = SymbolFamily.SP_UNIPOTENT, SymbolFamily.O_EVEN_PLUS, SymbolFamily.O_EVEN_MINUS
#: CLI family names; ``o-odd`` has the symplectic symbol set (labels add the sign).
CLI_FAMILIES = {"sp": SP_, "o+": OP_, "o-": OM_, "o-odd": SP_}
SIGNS = {"+": PLUS, "-": MINUS}


def peak_rss_kb(who=resource.RUSAGE_SELF) -> int:
    return resource.getrusage(who).ru_maxrss


# ---------------------------------------------------------------------------
# Sweeps and their correctness gates
# ---------------------------------------------------------------------------


def expected_f1_checks(max_rank: int) -> int:
    """Checks ``verify_f1`` must make: both towers per symplectic symbol, one per even one."""
    return sum(
        2 * count_symbols(r, SP_) + count_symbols(r, OP_) + count_symbols(r, OM_)
        for r in range(max_rank + 1)
    )


def _label_counts(max_rank: int, eps_minus_one: int):
    """Trivial-descriptor label counts per group, from symbol counts alone."""
    c = {f: [count_symbols(r, f) for r in range(max_rank + 1)] for f in (SP_, OP_, OM_)}

    def conv(f1, f2, n):
        return sum(c[f1][r] * c[f2][n - r] for r in range(n + 1))

    n_sp = [conv(SP_, OP_, n) + conv(SP_, OM_, n) for n in range(max_rank + 1)]
    n_odd = [2 * conv(SP_, SP_, n) for n in range(max_rank + 1)]  # two eps flags

    def n_even(m, sign):
        # slot signs (-1)^(d/2) multiply to eps_minus_one * sign
        if eps_minus_one * sign == PLUS:
            return conv(OP_, OP_, m) + conv(OM_, OM_, m)
        return conv(OP_, OM_, m) + conv(OM_, OP_, m)

    return n_sp, n_odd, n_even


def expected_variant_families(max_rank: int, eps_minus_one: int = PLUS) -> int:
    """Label pairs ``verify_variant_uniqueness`` must check, from label counts."""
    n_sp, n_odd, n_even = _label_counts(max_rank, eps_minus_one)
    fj = sum(n_sp[n] * n_sp[m] for n in range(max_rank + 1) for m in range(n + 1))
    bessel = sum(
        n_odd[n] * n_even(m, sign)
        for n in range(max_rank + 1)
        for m in range(max_rank + 1)
        for _eps in (PLUS, MINUS)
        for sign in (PLUS, MINUS)
    )
    return fj + bessel


def sweep_inputs(workload: str, tiny: bool) -> tuple[int, int]:
    """(rank, expected checks) of a sweep."""
    rank = (TINY_SWEEP_RANK if tiny else SWEEP_RANK)[workload]
    if workload == "f1-sweep":
        return rank, expected_f1_checks(rank)
    return rank, expected_variant_families(rank)


def sweep_failures(report, expected: int) -> int:
    """Failed operations of a sweep: verifier failures plus checks missing or extra.

    The sweep counts as verified work only when this is 0.
    """
    return len(report.failures) + abs(expected - report.checked)


def run_sweep(workload: str, tiny: bool, trace: bool) -> dict:
    from thetasym import oracle

    rank, expected = sweep_inputs(workload, tiny)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    reference_seconds()  # warm-up pass: the process is fresh
    refs = [reference_seconds()]
    # called through the module, so a traced run calls the wrapper
    start = time.perf_counter()
    if workload == "f1-sweep":
        report = oracle.verify_f1(rank)
    else:
        report = oracle.verify_variant_uniqueness(rank, TowerContext(eps_minus_one=PLUS))
    elapsed = time.perf_counter() - start
    refs.append(reference_seconds())
    return {
        "rank": rank,
        "expected": expected,
        "checked": report.checked,
        "failed": sweep_failures(report, expected),
        "failures": report.failures[:5],
        "elapsed_s": elapsed,
        "refs": refs,
        "maxrss_kb": peak_rss_kb(),
        "trace": tracer.summary() if tracer else None,
    }


# ---------------------------------------------------------------------------
# CLI mix: seeded requests, valid by construction
# ---------------------------------------------------------------------------


def _request(argv, expect_exit=0, rows=None, stdout=None) -> dict:
    """One CLI request with what its answer must look like.

    ``rows``: table rows the output must hold; ``stdout``: the exact output.
    """
    return {"argv": argv, "verb": argv[0], "exit": expect_exit, "rows": rows, "stdout": stdout}


def _defect_count(rank: int, residue: int) -> int:
    """Defects d = residue mod 4 whose staircase rank fits in ``rank``."""
    def offset(d):
        return (d // 2) ** 2 if d % 2 == 0 else (d * d - 1) // 4

    bound = 2 * int(rank ** 0.5) + 4
    return sum(1 for d in range(-bound, bound + 1) if d % 4 == residue and offset(d) <= rank)


def counts_suite_line(max_rank: int) -> str:
    """Output of ``verify --suite counts``: one count check plus one per defect."""
    checks = sum(
        1 + _defect_count(r, residue) for residue in (1, 0, 2) for r in range(max_rank + 1)
    )
    return f"suite counts: pass ({checks} checks, 0 failures)\n"


#: Sizes that set the cost of a deck, and of building it.  They are the same
#: in every deck and for every seed, so latency percentiles, peak memory and
#: set-up time do not depend on the draw; the seed picks symbols, labels,
#: signs, shapes and the order.
#: The four large tables make up 4 of the 26 requests of a deck, so the p90
#: falls among them rather than among requests whose cost the draw sets.
MIX_SIZES = {
    "enumerate": (("sp", 16, "pretty"), ("o+", 14, "json"), ("o-", 16, "csv"), ("o-odd", 14, "pretty")),
    "fiber_targets": (6, 8, 10, 12),
    "first_ranks": (4, 6, 8, 10),
    "branch_ranks": (3, 4, 5, 6),
    "counts_ranks": (6, 8),
}
TINY_MIX_SIZES = {
    "enumerate": (("sp", 5, "pretty"), ("o+", 4, "json"), ("o-", 3, "csv"), ("o-odd", 2, "pretty")),
    "fiber_targets": (2, 3, 3, 4),
    "first_ranks": (1, 2, 2, 3),
    "branch_ranks": (1, 2),
    "counts_ranks": (1, 2),
}


class MixBuilder:
    """Draws requests from the library's own enumerations and formatters."""

    def __init__(self, rng: random.Random, tiny: bool):
        self.rng = rng
        self.sizes = TINY_MIX_SIZES if tiny else MIX_SIZES
        self._symbols = {}
        self._labels = {}

    def symbol(self, rank, family):
        key = (rank, family)
        if key not in self._symbols:
            self._symbols[key] = enumerate_symbols(rank, family)
        return self.rng.choice(self._symbols[key])

    def label(self, group, eps_minus_one):
        key = (group, eps_minus_one)
        if key not in self._labels:
            self._labels[key] = list(enumerate_labels(group, eps_minus_one))
        pool = self._labels[key]
        return self.rng.choice(pool) if pool else None

    def sign(self) -> str:
        return self.rng.choice("+-")

    def fmt(self) -> str:
        return self.rng.choice(("pretty", "json", "csv"))

    def enumerate_requests(self):
        for name, rank, fmt in self.sizes["enumerate"]:
            argv = ["symbols-enumerate", "--rank", str(rank), "--family", name, "--format", fmt]
            yield _request(argv, rows=count_symbols(rank, CLI_FAMILIES[name]))

    def theta_requests(self):
        for target in self.sizes["fiber_targets"]:
            lam = self.symbol(target // 2, SP_)
            argv = ["theta-fiber", "--symbol", format_symbol(lam), "--sign", self.sign(),
                    "--target-rank", str(target), "--format", self.fmt()]
            yield _request(argv)
        # both directions; o-to-sp once per tower, whose sign the family fixes
        shapes = (("sp-to-o", SP_, self.sign()), ("sp-to-o", SP_, self.sign()),
                  ("o-to-sp", OP_, "+"), ("o-to-sp", OM_, "-"))
        for rank, (direction, family, sign) in zip(self.sizes["first_ranks"], shapes):
            argv = ["theta-first", "--symbol", format_symbol(self.symbol(rank, family)), "--sign", sign,
                    "--direction", direction, "--format", self.fmt()]
            yield _request(argv)
        for _ in range(2):
            argv = ["theta-cuspidal", "--k", str(self.rng.randint(0, 5)),
                    "--variant", self.rng.choice(("down", "up")), "--format", self.fmt()]
            yield _request(argv)

    def _fj_pair(self, eps):
        n = self.rng.randint(1, 3)
        return self.label(sp(n), eps), self.label(sp(self.rng.randint(0, n)), eps)

    def _bessel_pair(self, eps):
        while True:
            left = self.label(o_odd(self.rng.randint(0, 3), SIGNS[self.sign()]), eps)
            right = self.label(o_even(self.rng.randint(0, 3), SIGNS[self.sign()]), eps)
            if right is not None:
                return left, right

    def ggp_requests(self):
        for case in ("fj", "fj", "bessel", "bessel"):
            eps = self.sign()
            pair = self._fj_pair(SIGNS[eps]) if case == "fj" else self._bessel_pair(SIGNS[eps])
            argv = ["ggp-mult", "--left", format_label(pair[0]), "--right", format_label(pair[1]),
                    "--case", case, "--eps-minus-one", eps, "--format", self.fmt()]
            yield _request(argv)
        for n in self.sizes["branch_ranks"]:
            eps = self.sign()
            lam = self.symbol(n, SP_)
            if self.rng.random() < 0.5:
                pi, target = unipotent_label(sp(n), lam), sp(n)
            else:
                group = o_odd(n, SIGNS[self.sign()])
                pi = unipotent_label(group, lam, SIGNS[self.sign()], SIGNS[eps])
                target = o_even(n, SIGNS[self.sign()])
            argv = ["ggp-branch", "--pi", format_label(pi), "--target", str(target),
                    "--eps-minus-one", eps, "--format", self.fmt()]
            yield _request(argv)

    def verify_requests(self):
        for r in self.sizes["counts_ranks"]:
            yield _request(["verify", "--suite", "counts", "--max-rank", str(r)], stdout=counts_suite_line(r))

    def malformed_requests(self):
        """Text the grammars reject with a domain error (exit 1)."""
        lam = format_symbol(self.symbol(3, SP_))
        label = self._fj_pair(PLUS)[0]
        fj = format_label(label)
        odd_sp = fj.replace(str(label.group), f"sp({label.group.dimension + 1})", 1)
        bad = [
            ["theta-first", "--symbol", lam[:-1], "--sign", "+", "--direction", "sp-to-o"],
            ["theta-fiber", "--symbol", lam.replace("|", ","), "--sign", "-", "--target-rank", "3"],
            ["theta-first", "--symbol", "[1,1|]", "--sign", "+", "--direction", "sp-to-o"],
            ["ggp-mult", "--left", odd_sp, "--right", fj, "--case", "fj", "--eps-minus-one", "+"],
            ["ggp-branch", "--pi", fj.replace(":0:reg", ":0", 1), "--target", "sp(2)", "--eps-minus-one", "+"],
            ["ggp-mult", "--left", fj[: fj.index(" ; L'=")], "--right", fj, "--case", "fj", "--eps-minus-one", "+"],
        ]
        for argv in self.rng.sample(bad, 2):
            yield _request(argv, expect_exit=1)

    def deck(self) -> list[dict]:
        """One cycle of the mix: every verb, in a seeded order."""
        requests = [
            *self.enumerate_requests(),
            *self.theta_requests(),
            *self.ggp_requests(),
            *self.verify_requests(),
            *self.malformed_requests(),
        ]
        self.rng.shuffle(requests)
        return requests


#: Decks built up front; a run that needs more cycles through them again.
DECKS = 8


def build_mix(seed: int, tiny: bool) -> list[list[dict]]:
    builder = MixBuilder(random.Random(seed), tiny)
    return [builder.deck() for _ in range(2 if tiny else DECKS)]


def check_response(req: dict, code: int, out: bytes, err: bytes) -> bool:
    """Exit code, no traceback, and output of the right shape and size.

    A json table is one object per line and may be empty (an empty theta
    fiber); pretty and csv tables always start with a header line.
    """
    if code != req["exit"] or b"Traceback" in err:
        return False
    if req["exit"] != 0:
        return not out and err.startswith(b"error:")
    if req["stdout"] is not None:
        return out == req["stdout"].encode()
    lines = out.splitlines()
    if "json" in req["argv"]:
        if not all(line.startswith(b"{") and line.endswith(b"}") for line in lines):
            return False
        rows = len(lines)
    elif lines:
        rows = len(lines) - 1
    else:
        return False
    return req["rows"] is None or rows == req["rows"]


def execute(req: dict, traced: bool) -> tuple[float, bool, bytes, dict | None]:
    """Run one request as a fresh ``thetasym`` process; returns (ms, ok, stdout, trace).

    The process inherits this one's environment, which ``run.py`` built.
    """
    if traced:
        argv = [sys.executable, HERE, "cli", *req["argv"]]
    else:
        argv = [sys.executable, "-m", "thetasym.cli", *req["argv"]]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=60)
    except subprocess.TimeoutExpired:
        return (time.perf_counter() - start) * 1000, False, b"", None
    ms = (time.perf_counter() - start) * 1000
    err, summary = proc.stderr, None
    if traced:
        head, _, tail = err.rpartition(TRACE_MARKER.encode())
        if tail:
            err, summary = head, json.loads(tail)
    return ms, check_response(req, proc.returncode, proc.stdout, err), proc.stdout, summary


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _key(req: dict) -> str:
    return " ".join(req["argv"])


def run_cli_mix(seed: int, seconds: float, tiny: bool) -> dict:
    """Closed loop, one client, whole decks.

    Decks run while the next one is expected to end within ``seconds``, and
    until p90 has at least ten samples beyond it.  A reference pass runs
    before each request and after the last, so ``refs`` has one entry more
    than ``records``.
    """
    decks = build_mix(seed, tiny)
    min_samples = 10 if tiny else 100
    records, refs, digests, mismatched, failures = [], [], {}, 0, []
    start, last, i = time.perf_counter(), 0.0, 0
    while i == 0 or len(records) < min_samples or time.perf_counter() - start + last <= seconds:
        deck_start = time.perf_counter()
        for req in decks[i % len(decks)]:
            refs.append(reference_seconds())
            ms, ok, out, _ = execute(req, False)
            digest = _digest(out)
            if digests.setdefault(_key(req), digest) != digest:
                ok, mismatched = False, mismatched + 1
            if not ok:
                failures.append(req["argv"])
            records.append((req["verb"], ms, ok))
        last = time.perf_counter() - deck_start
        i += 1
    refs.append(reference_seconds())
    deck0 = hashlib.sha256("".join(digests[_key(r)] for r in decks[0]).encode()).hexdigest()[:16]
    return {
        "records": records,
        "refs": refs,
        "decks": i,
        "nondeterministic": mismatched,
        "failed_requests": failures[:10],
        "deck0_digest": deck0,
        "digests": digests,
        "maxrss_kb": peak_rss_kb(resource.RUSAGE_CHILDREN),
    }


def sum_summaries(summaries: list[dict]) -> dict:
    total: dict = {}
    for s in summaries:
        for k, v in s.items():
            total[k] = total.get(k, 0) + v
    return total


def run_cli_mix_traced(seed: int, seconds: float, tiny: bool) -> dict:
    """Deck 0 untraced then traced, in pairs while the next pair fits in the time.

    Returns the untraced per-request timings, the summed trace of each traced
    pass and the traced/untraced wall-time ratio of each pair.  A request
    fails if its answer is wrong, if tracing changed its stdout, or if its
    traced run left no summary.
    """
    deck = build_mix(seed, tiny)[0]
    records, passes, ratios, digests = [], [], [], {}
    out_bytes = failed = attempted = 0
    start, last = time.perf_counter(), 0.0
    while not ratios or time.perf_counter() - start + last <= seconds:
        pair_start = time.perf_counter()
        walls = []
        for traced in (False, True):
            wall, summaries = 0.0, []
            for req in deck:
                ms, ok, out, summary = execute(req, traced)
                digest = _digest(out)
                wall += ms
                attempted += 1
                failed += not ok or digests.setdefault(_key(req), digest) != digest or (
                    traced and summary is None
                )
                if summary is not None:
                    summaries.append(summary)
                if not traced:
                    records.append((req["verb"], ms, ok))
                    if not passes:  # first pass: bytes of one deck
                        out_bytes += len(out)
            walls.append(wall)
            if traced:
                passes.append(sum_summaries(summaries))
        ratios.append(walls[1] / walls[0])
        last = time.perf_counter() - pair_start
    return {"records": records, "passes": passes, "ratios": ratios,
            "output_bytes": out_bytes, "attempted": attempted, "failed": failed}


def run_traced_cli(argv: list[str]) -> int:
    """``thetasym ARGV`` with the tracer installed; the summary goes to stderr last."""
    import thetasym.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = thetasym.cli.main(argv)
    except SystemExit as stop:  # argparse rejections
        code = stop.code if isinstance(stop.code, int) else 1
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARKER + json.dumps(tracer.summary()) + "\n")
    return code


def main(argv: list[str]) -> int:
    if argv and argv[0] == "cli":
        return run_traced_cli(argv[1:])
    parser = argparse.ArgumentParser(prog="workloads.py")
    parser.add_argument("mode", choices=("setup", "sweep", "cli-mix"))
    parser.add_argument("workload", nargs="?", default="cli-mix")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        if args.workload == "cli-mix":
            result = {"requests": sum(len(d) for d in build_mix(args.seed, args.tiny))}
        else:
            result = dict(zip(("rank", "expected"), sweep_inputs(args.workload, args.tiny)))
    elif args.mode == "sweep":
        result = run_sweep(args.workload, args.tiny, args.trace)
    elif args.trace:
        result = run_cli_mix_traced(args.seed, args.seconds, args.tiny)
    else:
        result = run_cli_mix(args.seed, args.seconds, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
