"""Fingerprint extraction and differential comparison."""

import json

from repro.validate.fingerprint import fingerprint_diff, scenario_fingerprint
from repro.validate.monitors import MonitorSet
from repro.validate.runner import run_cell_validated
from repro.validate.scenarios import matrix


def small_fp():
    return {
        "p99": 0.0123,
        "completed": 40,
        "final_alloc": {"a": 2.0, "b": 3.5},
        "controller_actions": {"freq_up": 1, "freq_down": 2},
    }


class TestFingerprintDiff:
    def test_identical_is_empty(self):
        assert fingerprint_diff(small_fp(), small_fp()) == []

    def test_scalar_drift_reports_dotted_path(self):
        obs = small_fp()
        obs["p99"] = 0.0124
        diffs = fingerprint_diff(small_fp(), obs)
        assert diffs == ["p99: 0.0123 != 0.0124"]

    def test_nested_drift_reports_dotted_path(self):
        obs = small_fp()
        obs["final_alloc"]["b"] = 4.0
        diffs = fingerprint_diff(small_fp(), obs)
        assert diffs == ["final_alloc.b: 3.5 != 4.0"]

    def test_missing_and_extra_fields_both_reported(self):
        golden = small_fp()
        obs = small_fp()
        del obs["completed"]
        obs["new_field"] = 1
        diffs = fingerprint_diff(golden, obs)
        assert any(d.startswith("completed:") and "absent in run" in d for d in diffs)
        assert any(d.startswith("new_field:") and "absent in golden" in d for d in diffs)

    def test_exact_float_comparison(self):
        golden = small_fp()
        obs = small_fp()
        obs["p99"] = golden["p99"] * (1 + 1e-15)  # one ulp-ish nudge
        assert fingerprint_diff(golden, obs)


class TestScenarioFingerprint:
    def test_fingerprint_fields_and_json_round_trip(self):
        (cell,) = matrix(
            workloads=["chain"], controllers=["surgeguard"], scenarios=["steady"]
        )
        outcome = run_cell_validated(cell)
        fp = outcome.fingerprint
        expected_keys = {
            "violation_volume", "violation_duration", "p99", "completed",
            "outstanding", "ingress", "events_fired", "packets_sent",
            "packets_delivered", "final_alloc", "final_freq",
            "controller_actions", "fast_path_packets", "fast_path_violations",
        }
        assert set(fp) == expected_keys
        assert fp["completed"] > 0
        assert fp["events_fired"] > 0
        assert set(fp["final_alloc"]) == set(fp["final_freq"])
        # Committed goldens are JSON: the round trip must be lossless so
        # exact comparison against the file is meaningful.
        assert json.loads(json.dumps(fp)) == fp
        # And a deterministic re-run must produce the identical fingerprint.
        again = run_cell_validated(cell)
        assert fingerprint_diff(fp, again.fingerprint) == []

    def test_run_cell_validated_arms_monitors(self):
        (cell,) = matrix(
            workloads=["chain"], controllers=["null"], scenarios=["steady"]
        )
        outcome = run_cell_validated(cell)
        assert outcome.checks > 0
        assert outcome.violations == []


class TestMonitorSetFingerprints:
    def test_by_monitor_counts(self):
        monitors = MonitorSet()
        assert set(monitors.by_monitor()) == {
            "request-conservation",
            "core-feasibility",
            "frequency-bounds",
            "trace-causality",
            "escalator-sanity",
            "fault-resilience",
            "replica-conservation",
        }
        assert all(v == 0 for v in monitors.by_monitor().values())
