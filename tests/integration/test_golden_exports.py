"""Cross-commit golden exports: every chaos drill's five exports, pinned.

The determinism tests in ``test_determinism.py`` compare two runs inside
one process, so they cannot notice a change that shifts every run the
same way. This module pins the SHA-256 of all five deterministic exports
(fingerprint, timeline, SLO report, trace, telemetry) of every registered
chaos scenario at three seeds in ``golden_exports.json``. A refactor that
claims to keep behaviour must pass it unchanged.

Regenerate the JSON only for an intended behaviour change, and record the
reason in CHANGES.md::

    PYTHONPATH=src python tests/integration/test_golden_exports.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.chaos import run_scenario, scenario_names

GOLDEN_PATH = Path(__file__).with_name("golden_exports.json")
SEEDS = (0, 7, 21)
EXPORTS = (
    "fingerprint_json",
    "timeline_text",
    "slo_report_json",
    "trace_jsonl",
    "telemetry_jsonl",
)


def export_digests(scenario: str, seed: int) -> dict:
    """SHA-256 of each of the five exports of one drill run."""
    result = run_scenario(scenario, seed=seed)
    return {
        name: hashlib.sha256(getattr(result, name).encode("utf-8")).hexdigest()
        for name in EXPORTS
    }


def generate() -> dict:
    return {
        scenario: {str(seed): export_digests(scenario, seed) for seed in SEEDS}
        for scenario in scenario_names()
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_registered_scenario():
    golden = _golden()
    assert sorted(golden) == sorted(scenario_names())
    for scenario, by_seed in golden.items():
        assert sorted(by_seed) == sorted(str(seed) for seed in SEEDS), scenario


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", scenario_names())
def test_exports_match_golden(scenario, seed):
    expected = _golden()[scenario][str(seed)]
    assert export_digests(scenario, seed) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    GOLDEN_PATH.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
