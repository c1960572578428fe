"""Hostile scenario values through the CLI, in process.

Every scalar field of the bundled example (the first element of each list)
is set in turn to NaN, +inf, -inf, -1, 0, 1e300, a string and null, and the
scenario is run through ``solve --model evba``, ``solve --model evca
--policy low`` and ``ablate-costs``. Whatever the value, the command exits
0, 1 or 2 without a traceback; an exit of 1 prints exactly one message
line to stderr, which only the scenario's diagnostics follow, each on an
indented line of its own; and no report written with exit 0 holds a
non-finite number.
"""

from __future__ import annotations

import copy
import json
import math
import re

import pytest

from evdispatch.cli import main
from evdispatch.domain import example_scenario_path

EXAMPLE = json.loads(example_scenario_path().read_text())
FIELDS = [(section, key) for section, value in EXAMPLE.items()
          for key in (value[0] if isinstance(value, list) else value)]
VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1, "0": 0, "1e300": 1e300, "x": "x",
          "null": None}
COMMANDS = {
    "solve-evba": ["solve", "--model", "evba"],
    "solve-evca-low": ["solve", "--model", "evca", "--policy", "low"],
    "ablate-costs": ["ablate-costs"],
}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def test_the_corpus_covers_every_scalar_field_of_the_example():
    assert len(FIELDS) == 27
    assert ("horizon", "step_hours") in FIELDS and ("tariff_calendar", "night_end_hour") in FIELDS


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("field", FIELDS, ids=".".join)
def test_a_hostile_value_exits_cleanly_and_writes_no_non_finite_report(tmp_path, capsys, field, value, command):
    data = copy.deepcopy(EXAMPLE)
    section, key = field
    (data[section][0] if isinstance(data[section], list) else data[section])[key] = VALUES[value]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report"
    try:
        rc = main([*COMMANDS[command], "--scenario", str(path), "--gen-prices", "high", "--out", str(out)])
    except SystemExit as exc:  # a usage error
        rc = exc.code
    err = capsys.readouterr().err
    assert rc in (0, 1, 2) and "Traceback" not in err
    if rc == 1:  # one message line; a scenario's diagnostics follow it indented
        assert [line for line in err.splitlines() if not line.startswith("  ")] == [err.splitlines()[0]], err
    if rc == 0:
        for report in sorted(out.iterdir()):
            assert not NON_FINITE.search(report.read_text()), report.name
