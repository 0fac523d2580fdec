"""Golden ``bound()`` records: every field replays exactly (``==``).

``tests/data/bound_golden.json`` was written by
``tests/data/record_bound_golden.py`` before the per-system registry
replaced the tag chains in ``matching``, ``bounds`` and ``cli``.  Since
``match`` and ``match_curve`` now share one kernel per system, comparing
the two paths can no longer catch a change of arithmetic or of caveat
text; this file can.
"""

import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
sys.path.insert(0, str(DATA))
from record_bound_golden import decode_args, record  # noqa: E402

GOLDEN = json.loads((DATA / "bound_golden.json").read_text())


def test_golden_file_covers_every_system_poles_and_precision():
    assert len({r["system"] for r in GOLDEN}) == 9
    assert sum(r["value"] == "inf" for r in GOLDEN) >= 20
    assert sum(any(c.startswith("precision:") for c in r["caveats"])
               for r in GOLDEN) >= 3


@pytest.mark.parametrize("rec", GOLDEN, ids=lambda r: r["system"])
def test_bound_replays_golden_record(rec):
    assert record(rec["system"], decode_args(rec["args"])) == rec
