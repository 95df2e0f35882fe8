"""thetasym benchmark: verifier throughput, CLI latency and per-layer trace counts.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload f1-sweep --seed 1 --seconds 30 --trace 0

Workloads (see bench/NOTES.md for why each was chosen):

* ``f1-sweep``      - ``oracle.verify_f1`` to a fixed rank;
* ``variant-sweep`` - ``oracle.verify_variant_uniqueness`` to a fixed rank;
* ``cli-mix``       - seeded ``thetasym`` subprocess calls over every verb,
  one client in a closed loop.

Every workload runs in child processes started from a fresh interpreter with
``src`` on ``PYTHONPATH`` and ``THETASYM_CACHE_DIR`` removed, one at a time;
this process never imports the package.  Each sweep runs in a child of its
own, so no cache outlives one sweep, the way ``thetasym verify`` runs.  With
``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json, with every time normalized to a nominal machine speed by the
reference passes of ``speed.py``; with ``--trace 1`` it holds the per-layer
metrics from a traced run, which is slower and therefore never timed end to
end.  The line before it holds the run metadata, with the end-to-end figures
as measured under ``measured``.  Exit status is 0 after a complete run,
whether or not the answers were correct (``correct`` says that), and 2 when
the run could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from speed import reference_seconds, scale

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS_PY = os.path.join(BENCH, "workloads.py")
WORKLOADS = ("f1-sweep", "variant-sweep", "cli-mix")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Interpreter starts per run for ``cli.startup_ms`` and ``cli.import_ms``.
STARTUP_REPEATS = 7
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The run cannot be made: missing sources or a child that broke."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("THETASYM_CACHE_DIR", None)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list[str]) -> tuple[float, dict]:
    """Run a workloads.py mode; returns (wall seconds, its JSON result)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKLOADS_PY, *argv],
            capture_output=True,
            env=child_env(),
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workloads.py {' '.join(argv)} timed out") from None
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace")[-2000:]
        raise BenchError(f"workloads.py {' '.join(argv)} exited {proc.returncode}:\n{tail}")
    return wall, json.loads(proc.stdout.decode().splitlines()[-1])


def wall_ms(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, capture_output=True, env=child_env(), timeout=60, check=True)
    return (time.perf_counter() - start) * 1000


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metadata(args, extra: dict) -> dict:
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload == "cli-mix",
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_rev": rev,
        **extra,
    }


def tiny_flag(args) -> list[str]:
    return ["--tiny"] if args.tiny else []


# ---------------------------------------------------------------------------
# End-to-end runs (tracing off)
# ---------------------------------------------------------------------------


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Fresh interpreters importing the package and building the inputs.

    Returns the measured wall times and their speed factors; a reference
    pass runs before each set-up and after the last.
    """
    argv = ["setup", args.workload, "--seed", str(args.seed), *tiny_flag(args)]
    walls, refs = [], [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        walls.append(run_child(argv)[0])
        refs.append(reference_seconds())
    return walls, [scale(*refs[i : i + 2]) for i in range(len(walls))]


def sweep(args, trace: bool = False) -> dict:
    """One sweep in a child of its own."""
    return run_child(["sweep", args.workload, *tiny_flag(args), *(["--trace"] if trace else [])])[1]


def sweep_loop(args) -> list[dict]:
    """Sweeps while the next one is expected to fit in the time."""
    results, start, last = [], time.perf_counter(), 0.0
    while not results or time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        results.append(sweep(args))
        last = time.perf_counter() - t0
    return results


def timing_metrics(ops: int, setup_s: list[float], times_s: list[float], factors=None) -> dict:
    """Set-up time, throughput and latency; with ``factors``, at nominal speed."""
    if factors is not None:
        setup_s = [t * f for t, f in zip(setup_s, factors[0])]
        times_s = [t * f for t, f in zip(times_s, factors[1])]
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": ops / sum(times_s),
        "latency_p50_ms": statistics.median(times_s) * 1000,
        "latency_p90_ms": p90(times_s) * 1000,
    }


def end_to_end_sweep(args) -> tuple[dict, int, int, dict]:
    setup, setup_factors = measure_setup(args)
    sweeps = sweep_loop(args)
    verified = sum(s["checked"] for s in sweeps if s["failed"] == 0)
    times = [s["elapsed_s"] for s in sweeps]
    factors = [scale(*s["refs"]) for s in sweeps]
    metrics = {
        **timing_metrics(verified, setup, times, (setup_factors, factors)),
        "peak_rss_mb": max(s["maxrss_kb"] for s in sweeps) / 1024,
    }
    meta = {
        "rank": sweeps[0]["rank"],
        "operation": "check" if args.workload == "f1-sweep" else "variant family",
        "checks_per_sweep": sweeps[0]["expected"],
        "latency_samples": len(sweeps),
        "measured": timing_metrics(verified, setup, times),
        "speed_factor": statistics.median(factors),
        "sweep_checked": [s["checked"] for s in sweeps],
        "sweep_failures": [f for s in sweeps for f in s["failures"]][:5],
    }
    attempted = sum(s["expected"] for s in sweeps)
    return metrics, attempted, sum(s["failed"] for s in sweeps), meta


def end_to_end_cli(args) -> tuple[dict, int, int, dict]:
    setup, setup_factors = measure_setup(args)
    argv = ["cli-mix", "--seed", str(args.seed), "--seconds", str(args.seconds), *tiny_flag(args)]
    mix = run_child(argv)[1]
    times = [ms / 1000 for _verb, ms, _ok in mix["records"]]
    factors = [scale(*mix["refs"][i : i + 2]) for i in range(len(times))]
    done = sum(ok for _verb, _ms, ok in mix["records"])
    metrics = {
        **timing_metrics(done, setup, times, (setup_factors, factors)),
        "peak_rss_mb": mix["maxrss_kb"] / 1024,
    }
    meta = {
        "operation": "thetasym invocation",
        "latency_samples": len(times),
        "measured": timing_metrics(done, setup, times),
        "speed_factor": statistics.median(factors),
        "decks": mix["decks"],
        "nondeterministic_outputs": mix["nondeterministic"],
        "failed_requests": mix["failed_requests"],
        "deck0_digest": mix["deck0_digest"],
        "stdout_digests": mix["digests"],
    }
    return metrics, len(times), len(times) - done, meta


# ---------------------------------------------------------------------------
# Traced runs (per-layer metrics)
# ---------------------------------------------------------------------------


def merge_passes(passes: list[dict]) -> tuple[dict, int]:
    """Median self times; counts from the first pass, which every pass must repeat.

    Returns the merged summary and the number of counters that differed.
    """
    merged, differing = {}, 0
    for key in set().union(*passes):
        values = [p.get(key, 0) for p in passes]
        if key.endswith(".self_s"):
            merged[key] = statistics.median(values)
        else:
            merged[key] = values[0]
            differing += any(v != values[0] for v in values)
    return merged, differing


def traced_sweep(args) -> tuple[dict, int, int, dict]:
    pairs, start, last = [], time.perf_counter(), 0.0
    while not pairs or time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        pairs.append((sweep(args), sweep(args, trace=True)))
        last = time.perf_counter() - t0
    summary, differing = merge_passes([t["trace"] for _p, t in pairs])
    runs = [r for pair in pairs for r in pair]
    layer = {"trace.overhead_ratio": statistics.median(t["elapsed_s"] / p["elapsed_s"] for p, t in pairs)}
    attempted = sum(r["expected"] for r in runs)
    failed = sum(r["failed"] for r in runs) + differing
    return {**summary, **layer}, attempted, failed, {"traced_passes": len(pairs), "spans": summary.get("spans")}


def traced_cli(args) -> tuple[dict, int, int, dict]:
    argv = ["cli-mix", "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", *tiny_flag(args)]
    mix = run_child(argv)[1]
    summary, differing = merge_passes(mix["passes"])
    by_verb: dict[str, list[float]] = {}
    for verb, ms, _ok in mix["records"]:
        by_verb.setdefault(verb, []).append(ms)
    layer = {f"cli.{verb}.p50_ms": statistics.median(v) for verb, v in by_verb.items()}
    layer["trace.overhead_ratio"] = statistics.median(mix["ratios"])
    layer["cli.output_bytes"] = mix["output_bytes"]
    meta = {"traced_passes": len(mix["passes"]), "requests_per_deck": len(mix["records"]) // len(mix["passes"])}
    return {**summary, **layer}, mix["attempted"], mix["failed"] + differing, meta


def layer_metric(name: str, values: dict) -> float:
    """A per-layer metric by name; ratios are derived, absent counters read 0."""
    if name.endswith(".hit_ratio"):
        fn = name[: -len(".hit_ratio")]
        calls = values.get(f"{fn}.calls", 0)
        return values.get(f"{fn}.hits", 0) / calls if calls else 0.0
    return values.get(name, 0)


def startup_metrics() -> dict:
    version = [sys.executable, "-m", "thetasym.cli", "--version"]
    imports = [sys.executable, "-c", "import thetasym.cli"]
    return {
        "cli.startup_ms": statistics.median(wall_ms(version) for _ in range(STARTUP_REPEATS)),
        "cli.import_ms": statistics.median(wall_ms(imports) for _ in range(STARTUP_REPEATS)),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-test")
    return parser.parse_args(argv)


def run(args) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(SRC, "thetasym", "__init__.py")):
        raise BenchError(f"no thetasym sources under {SRC}; run from a source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    is_sweep = args.workload != "cli-mix"
    if args.trace == 0:
        values, attempted, failed, meta = (end_to_end_sweep if is_sweep else end_to_end_cli)(args)
        wanted = spec["end_to_end"]
    else:
        values, attempted, failed, meta = (traced_sweep if is_sweep else traced_cli)(args)
        values.update(startup_metrics())
        values["fail_ratio"] = failed / attempted
        values = {name: layer_metric(name, values) for name in (m["name"] for m in spec["per_layer"])}
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, metadata(args, meta)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, meta = run(args)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
