"""The README's table of closed forms and their oracles, the rank its f1
row reaches, its golden deck size, its command-line examples, and the
benchmark's per-layer metric names, stay true to the package."""

import importlib
import io
import itertools
import json
import random
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
NAME = re.compile(r"`(\w+(?:\.\w+)+)`")


def _table_rows() -> list[list[str]]:
    section = README.read_text().split("## Closed forms and their oracles\n", 1)[1]
    lines = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def _resolve(name: str):
    """``module.attr`` as an attribute of the ``thetasym`` package."""
    module, attr = name.split(".", 1)
    obj = importlib.import_module(f"thetasym.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


ROWS = _table_rows()


def test_closed_form_table_has_one_row_per_public_closed_form():
    forms = [name for row in ROWS for name in NAME.findall(row[0])]
    assert forms == [
        "theta.first_occurrence_unipotent",
        "theta.default_orientation",
        "theta.cuspidal_theta",
        "catalog.is_unipotent_cuspidal",
        "core.enumerate_symbols",
        "core.count_symbols",
        "ggp.ggp_multiplicity",
        "ggp.select_nonzero_variant",
        "ggp.branch_decomposition",
    ]


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row[0].split("`")[1])
def test_closed_form_table_row_is_current_and_gated(row):
    """Every name a row gives resolves, so a stale row fails; and the row
    names an oracle or the open ROADMAP item that is to supply one.  A row
    without an oracle names a caller in ``src/``: a closed form with
    neither only waits to be deleted."""
    forms, oracle, _suite, _reach, callers = row
    for cell in (forms, oracle, callers):
        for name in NAME.findall(cell):
            _resolve(name)  # a stale name raises here
    assert NAME.search(oracle) or re.search(r"ROADMAP items? \d", oracle), forms
    assert NAME.search(oracle) or NAME.search(callers), forms


def test_f1_rank_reached_is_the_rank_criterion_2_checks():
    """The f1 row's "Rank reached" is the rank that acceptance criterion 2
    passes to ``verify_f1``, read from that test's source."""
    source = (ROOT / "tests" / "test_acceptance.py").read_text()
    test = source.split("def test_criterion_2_closed_form_equals_brute(", 1)[1].split("\ndef ", 1)[0]
    ranks = re.findall(r"\bverify_f1\((\d+)\)", test)
    assert len(ranks) == 1, ranks
    (row,) = [row for row in ROWS if "`theta.first_occurrence_unipotent`" in row[0]]
    assert row[3] == ranks[0]


def test_readme_states_the_golden_deck_size():
    """The request count the README gives for ``tests/golden_cli.py`` is
    the size of the deck it draws; the deck is built, none of it run."""
    import golden_cli

    section = README.read_text().split("## Development\n", 1)[1]
    stated = re.search(r"deck of ([\d,]+) command-line requests", section)
    assert stated, "the Development section no longer states the deck size"
    deck = golden_cli._deck(random.Random(golden_cli.SEED))
    assert int(stated.group(1).replace(",", "")) == len(deck)


def _readme_commands() -> list[list[str]]:
    """The ``thetasym`` commands of README's "Command line" block, continuations joined."""
    section = README.read_text().split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


COMMANDS = _readme_commands()


def test_readme_command_block_shows_each_verb_once():
    """Each verb's examples stand together, the verbs in this order."""
    assert [verb for verb, _ in itertools.groupby(argv[:2] for argv in COMMANDS)] == [
        ["thetasym", verb]
        for verb in (
            "symbols-enumerate", "theta-fiber", "theta-first", "theta-cuspidal",
            "ggp-mult", "ggp-branch", "verify",
        )
    ]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[1])
def test_readme_command_runs(argv):
    """Each README example runs in-process, exits 0 and prints something."""
    from thetasym.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv[1:])
    assert code == 0, argv
    assert out.getvalue(), argv


LAYERS = ("core", "catalog", "theta", "ggp", "oracle")


def test_benchmark_layer_metrics_name_existing_functions():
    """A per-layer metric ``<module>.<function>.<counter>`` reads 0 once its
    function is renamed, since the tracer skips a missing name."""
    metrics = [m["name"].split(".") for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    layered = [parts for parts in metrics if len(parts) == 3 and parts[0] in LAYERS]
    assert len(layered) > 30
    for module, function, _counter in layered:
        assert callable(getattr(importlib.import_module(f"thetasym.{module}"), function, None)), (module, function)
