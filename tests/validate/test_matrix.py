"""The differential scenario matrix against its committed goldens.

A single cheap cell runs in tier-1; the full-slice comparisons are
marked ``matrix`` and run in their own CI job (or locally via
``pytest -m matrix`` / ``python -m repro.validate``).
"""

import json

import pytest

from repro.validate.runner import (
    golden_path,
    load_goldens,
    run_matrix,
)
from repro.validate.scenarios import (
    CONTROLLERS,
    FAULT_CONTROLLERS,
    FAULT_SCENARIOS,
    HORIZONTAL_CONTROLLERS,
    HORIZONTAL_SCENARIOS,
    MULTINODE_CONTROLLERS,
    MULTINODE_SCENARIOS,
    SCENARIOS,
    WORKLOADS,
    ZOO_CONTROLLERS,
    ZOO_SCENARIOS,
    fault_matrix,
    horizontal_matrix,
    multinode_matrix,
    scenario_matrix,
    zoo_matrix,
)


class TestMatrixConstruction:
    def test_full_matrix_shape(self):
        cells = scenario_matrix()
        assert len(cells) == len(WORKLOADS) * len(CONTROLLERS) * len(SCENARIOS)
        assert len({c.key for c in cells}) == len(cells)

    def test_filtering(self):
        cells = scenario_matrix(
            workloads=["chain"], controllers=["null", "surgeguard"]
        )
        assert len(cells) == 2 * len(SCENARIOS)
        assert {c.workload_family for c in cells} == {"chain"}

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            scenario_matrix(workloads=["nope"])
        with pytest.raises(KeyError):
            scenario_matrix(scenarios=["nope"])

    def test_fault_matrix_shape(self):
        cells = fault_matrix()
        assert len(cells) == len(FAULT_CONTROLLERS) * len(FAULT_SCENARIOS)
        assert {c.workload_family for c in cells} == {"chain"}
        # Fault keys never collide with the base matrix.
        base_keys = {c.key for c in scenario_matrix()}
        assert not base_keys & {c.key for c in cells}

    def test_fault_matrix_filtering_and_rejection(self):
        cells = fault_matrix(controllers=["surgeguard"], scenarios=["loss-burst"])
        assert [c.key for c in cells] == ["chain/surgeguard/loss-burst"]
        with pytest.raises(KeyError):
            fault_matrix(controllers=["caladan"])
        with pytest.raises(KeyError):
            fault_matrix(scenarios=["steady"])

    def test_fault_cells_carry_plans_with_rpc(self):
        for cell in fault_matrix():
            plan = cell.config.faults
            assert plan is not None and not plan.empty, cell.key
            assert plan.rpc is not None, cell.key
            if cell.scenario == "loss-burst":
                assert plan.loss_windows and not plan.crashes and not plan.stalls
            elif cell.scenario == "crash-during-surge":
                assert plan.crashes and not plan.loss_windows and not plan.stalls
            else:
                assert plan.stalls and not plan.loss_windows and not plan.crashes
        # Base cells never carry faults.
        assert all(c.config.faults is None for c in scenario_matrix())

    def test_horizontal_matrix_shape(self):
        cells = horizontal_matrix()
        assert len(cells) == (
            len(WORKLOADS) * len(HORIZONTAL_CONTROLLERS) * len(HORIZONTAL_SCENARIOS)
        )
        # Horizontal keys never collide with the base or fault families.
        other = {c.key for c in scenario_matrix() + fault_matrix()}
        assert not other & {c.key for c in cells}
        for cell in cells:
            cfg = cell.config
            assert cfg.replicas == 1, cell.key
            assert cfg.replica_capacity > 1
            assert cfg.lb_policy == "round_robin"
            assert cfg.faults is None
            assert cfg.spike_magnitude is not None  # surge-shaped traffic

    def test_horizontal_matrix_filtering_and_rejection(self):
        cells = horizontal_matrix(workloads=["chain"], controllers=["hybrid"])
        assert [c.key for c in cells] == ["chain/hybrid/replica-surge"]
        with pytest.raises(KeyError):
            horizontal_matrix(controllers=["surgeguard"])
        with pytest.raises(KeyError):
            horizontal_matrix(scenarios=["steady"])
        with pytest.raises(KeyError):
            horizontal_matrix(workloads=["nope"])

    def test_zoo_matrix_shape(self):
        cells = zoo_matrix()
        assert len(cells) == (
            len(WORKLOADS) * len(ZOO_CONTROLLERS) * len(ZOO_SCENARIOS)
        )
        # Zoo keys never collide with the other families.
        other = {
            c.key
            for c in scenario_matrix() + fault_matrix() + horizontal_matrix()
        }
        assert not other & {c.key for c in cells}
        for cell in cells:
            cfg = cell.config
            assert cfg.faults is None, cell.key
            if cell.scenario == "steady":
                assert cfg.spike_magnitude is None, cell.key
            else:
                assert cfg.spike_magnitude is not None, cell.key
            if cell.scenario == "replica-surge":
                assert cfg.replicas == 2, cell.key
                assert cfg.lb_policy == "round_robin", cell.key
            else:
                assert cfg.replicas == 1, cell.key

    def test_zoo_matrix_filtering_and_rejection(self):
        cells = zoo_matrix(workloads=["chain"], controllers=["statuscale"])
        assert [c.key for c in cells] == [
            "chain/statuscale/steady",
            "chain/statuscale/spike",
            "chain/statuscale/replica-surge",
        ]
        with pytest.raises(KeyError):
            zoo_matrix(controllers=["surgeguard"])
        with pytest.raises(KeyError):
            zoo_matrix(scenarios=["rate-spike"])
        with pytest.raises(KeyError):
            zoo_matrix(workloads=["nope"])

    def test_multinode_matrix_shape(self):
        cells = multinode_matrix()
        assert len(cells) == (
            len(WORKLOADS) * len(MULTINODE_CONTROLLERS) * len(MULTINODE_SCENARIOS)
        )
        # Multinode keys never collide with the other families.
        other = {
            c.key
            for c in scenario_matrix()
            + fault_matrix()
            + horizontal_matrix()
            + zoo_matrix()
        }
        assert not other & {c.key for c in cells}
        for cell in cells:
            cfg = cell.config
            assert cfg.network is not None and cfg.network.jitter == 0.0, cell.key
            assert cfg.n_nodes == 4, cell.key
            assert cfg.faults is None and cfg.replicas == 1, cell.key
            if cell.scenario == "multinode-steady":
                assert cfg.spike_magnitude is None, cell.key
            else:
                assert cfg.spike_magnitude is not None, cell.key

    def test_multinode_matrix_filtering_and_rejection(self):
        cells = multinode_matrix(workloads=["chain"], controllers=["surgeguard"])
        assert [c.key for c in cells] == [
            "chain/surgeguard/multinode-steady",
            "chain/surgeguard/multinode-spike",
        ]
        with pytest.raises(KeyError):
            multinode_matrix(controllers=["statuscale"])
        with pytest.raises(KeyError):
            multinode_matrix(scenarios=["steady"])
        with pytest.raises(KeyError):
            multinode_matrix(workloads=["nope"])

    def test_scenario_shapes(self):
        by_key = {c.key: c for c in scenario_matrix(workloads=["chain"])}
        steady = by_key["chain/null/steady"].config
        spike = by_key["chain/null/rate-spike"].config
        surge = by_key["chain/null/latency-surge"].config
        assert steady.spike_magnitude is None and not steady.latency_surges
        assert spike.spike_magnitude == 2.0
        assert len(surge.latency_surges) == 1
        t0, t1, extra = surge.latency_surges[0]
        assert steady.warmup < t0 < t1 < steady.warmup + steady.duration
        assert extra > 0


class TestGoldenFile:
    def test_goldens_cover_the_full_matrix(self):
        goldens = load_goldens()
        assert set(goldens) == {
            c.key
            for c in scenario_matrix()
            + fault_matrix()
            + horizontal_matrix()
            + zoo_matrix()
            + multinode_matrix()
        }

    def test_fault_goldens_record_fault_activity(self):
        goldens = load_goldens()
        for cell in fault_matrix():
            fp = goldens[cell.key]
            stats = fp["fault_stats"]
            if cell.scenario == "loss-burst":
                assert stats["packets_dropped"] > 0, cell.key
            elif cell.scenario == "crash-during-surge":
                assert stats["crashes"] == 1, cell.key
            elif cell.controller != "null":
                # Stall cells: null has no decision loop to suppress.
                assert stats["stalled_cycles"] > 0, cell.key
        # Base cells must NOT have grown fault keys (golden stability).
        for cell in scenario_matrix():
            assert "fault_stats" not in goldens[cell.key], cell.key
            assert "errors" not in goldens[cell.key], cell.key

    def test_horizontal_goldens_record_replica_scaling(self):
        goldens = load_goldens()
        for cell in horizontal_matrix():
            fp = goldens[cell.key]
            # The autoscaler actually launched replicas inside the cell
            # (otherwise the family pins nothing about the LB tier)...
            assert fp["controller_actions"]["upscale_core"] > 0, cell.key
            # ...and the launched replicas appear as live endpoints.
            assert any("@" in name for name in fp["final_alloc"]), cell.key
            assert "fault_stats" not in fp, cell.key

    def test_zoo_goldens_record_controller_activity(self):
        goldens = load_goldens()
        for cell in zoo_matrix():
            fp = goldens[cell.key]
            assert "fault_stats" not in fp, cell.key
            if cell.scenario != "steady":
                # Both plugins act on surge-shaped traffic in-cell —
                # otherwise the family pins nothing about the plugins.
                assert fp["controller_actions"]["upscale_core"] > 0, cell.key

    def test_goldens_report_zero_paper_invariant_breaks(self):
        # Structural sanity of the committed file itself: counts are
        # non-negative and conservation holds *within* each fingerprint.
        # (``completed`` counts only the measurement window, so it is
        # bounded by — not equal to — total ingress.)
        for key, fp in load_goldens().items():
            assert 0 < fp["completed"] <= fp["ingress"], key
            assert fp["outstanding"] >= 0, key
            assert fp["packets_delivered"] <= fp["packets_sent"], key
            assert fp["violation_volume"] >= 0.0, key
            assert fp["violation_duration"] >= 0.0, key
            assert all(v > 0 for v in fp["final_alloc"].values()), key

    def test_golden_file_is_sorted_and_round_trips(self):
        text = golden_path().read_text()
        goldens = json.loads(text)
        assert list(goldens) == sorted(goldens)
        assert (
            json.dumps(goldens, indent=2, sort_keys=True) + "\n" == text
        ), "goldens.json not in canonical --update-golden format"


#: The tier-1 cells, by golden key: the cheapest base cell, and its
#: 4-node, jitter-free counterpart.
_TIER1_CELLS = {
    "chain/null/steady": scenario_matrix,
    "chain/null/multinode-steady": multinode_matrix,
}


class TestMatrixTier1Cell:
    @pytest.mark.parametrize("key", list(_TIER1_CELLS))
    def test_one_cell_matches_golden(self, key):
        """Cheapest cells in tier-1: catch drift on every PR."""
        family, controller, scenario = key.split("/")
        cells = _TIER1_CELLS[key](
            workloads=[family], controllers=[controller], scenarios=[scenario]
        )
        assert [c.key for c in cells] == [key]
        report = run_matrix(cells, verbose=False)
        assert report.ok, [
            (c.scenario.key, c.violations, c.diffs) for c in report.outcomes
        ]
        assert report.total_checks > 0


@pytest.mark.matrix
class TestMatrixSlices:
    """Full-controller slices; ``python -m repro.validate`` covers the rest."""

    @pytest.mark.parametrize("family", sorted(WORKLOADS))
    def test_family_slice(self, family):
        report = run_matrix(scenario_matrix(workloads=[family]), verbose=False)
        failing = [
            (c.scenario.key, c.violations, c.diffs, c.golden_missing)
            for c in report.outcomes
            if not c.ok
        ]
        assert report.ok, failing
        assert report.total_violations == 0

    def test_horizontal_slice(self):
        report = run_matrix(horizontal_matrix(), verbose=False)
        failing = [
            (c.scenario.key, c.violations, c.diffs, c.golden_missing)
            for c in report.outcomes
            if not c.ok
        ]
        assert report.ok, failing
        assert report.total_violations == 0

    def test_zoo_slice(self):
        report = run_matrix(zoo_matrix(), verbose=False)
        failing = [
            (c.scenario.key, c.violations, c.diffs, c.golden_missing)
            for c in report.outcomes
            if not c.ok
        ]
        assert report.ok, failing
        assert report.total_violations == 0

    def test_fault_slice(self):
        report = run_matrix(fault_matrix(), verbose=False)
        failing = [
            (c.scenario.key, c.violations, c.diffs, c.golden_missing)
            for c in report.outcomes
            if not c.ok
        ]
        assert report.ok, failing
        assert report.total_violations == 0

    def test_update_golden_writes_filtered_set(self, tmp_path):
        cells = scenario_matrix(
            workloads=["chain"], controllers=["null"], scenarios=["steady"]
        )
        out = tmp_path / "goldens.json"
        report = run_matrix(cells, update_golden=True, golden_file=out, verbose=False)
        assert report.updated_golden
        written = json.loads(out.read_text())
        assert list(written) == ["chain/null/steady"]
        # Comparing against the file we just wrote is clean.
        report2 = run_matrix(cells, golden_file=out, verbose=False)
        assert report2.ok
