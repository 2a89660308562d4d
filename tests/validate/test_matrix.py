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
from repro.validate.scenarios import FAMILIES, WORKLOADS, matrix

#: Cells per family: the product of its workload, controller and
#: scenario lists.
_FAMILY_SIZES = dict(base=36, faults=9, horizontal=6, zoo=18, multinode=12)


def _base_shape(cell):
    assert cell.config.faults is None, cell.key


def _fault_shape(cell):
    assert cell.workload_family == "chain", cell.key


def _horizontal_shape(cell):
    cfg = cell.config
    assert cfg.replicas == 1, cell.key
    assert cfg.replica_capacity > 1
    assert cfg.lb_policy == "round_robin"
    assert cfg.faults is None
    assert cfg.spike_magnitude is not None  # surge-shaped traffic


def _zoo_shape(cell):
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


def _multinode_shape(cell):
    cfg = cell.config
    assert cfg.network is not None and cfg.network.jitter == 0.0, cell.key
    assert cfg.n_nodes == 4, cell.key
    assert cfg.faults is None and cfg.replicas == 1, cell.key
    if cell.scenario == "multinode-steady":
        assert cfg.spike_magnitude is None, cell.key
    else:
        assert cfg.spike_magnitude is not None, cell.key


#: What every cell of a family must look like.
_FAMILY_SHAPES = {
    "base": _base_shape,
    "faults": _fault_shape,
    "horizontal": _horizontal_shape,
    "zoo": _zoo_shape,
    "multinode": _multinode_shape,
}

#: One filtered selection per family, and the keys it yields.
_FAMILY_FILTERS = {
    "base": (
        dict(workloads=["chain"], controllers=["null", "surgeguard"]),
        [
            f"chain/{c}/{s}"
            for c in ("null", "surgeguard")
            for s in ("steady", "rate-spike", "latency-surge")
        ],
    ),
    "faults": (
        dict(controllers=["surgeguard"], scenarios=["loss-burst"]),
        ["chain/surgeguard/loss-burst"],
    ),
    "horizontal": (
        dict(workloads=["chain"], controllers=["hybrid"]),
        ["chain/hybrid/replica-surge"],
    ),
    "zoo": (
        dict(workloads=["chain"], controllers=["statuscale"]),
        [
            "chain/statuscale/steady",
            "chain/statuscale/spike",
            "chain/statuscale/replica-surge",
        ],
    ),
    "multinode": (
        dict(workloads=["chain"], controllers=["surgeguard"]),
        [
            "chain/surgeguard/multinode-steady",
            "chain/surgeguard/multinode-spike",
        ],
    ),
}


class TestMatrixConstruction:
    def test_full_matrix_shape(self):
        cells = matrix()
        assert len(cells) == sum(_FAMILY_SIZES.values()) == 81
        # Keys are unique across the whole matrix, not just per family.
        assert len({c.key for c in cells}) == len(cells)
        assert cells == [c for name in FAMILIES for c in matrix(families=[name])]

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_family_shape(self, family):
        fam = FAMILIES[family]
        cells = matrix(families=[family])
        assert len(cells) == _FAMILY_SIZES[family] == (
            len(fam.workloads) * len(fam.controllers) * len(fam.scenarios)
        )
        assert [(c.workload_family, c.controller, c.scenario) for c in cells] == [
            (w, c, s)
            for w in fam.workloads
            for c in fam.controllers
            for s in fam.scenarios
        ]
        for cell in cells:
            assert cell.config.workload == WORKLOADS[cell.workload_family]
            _FAMILY_SHAPES[family](cell)

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_family_filtering(self, family):
        filters, keys = _FAMILY_FILTERS[family]
        assert [c.key for c in matrix(families=[family], **filters)] == keys

    def test_filtering(self):
        # The filters apply to every family at once, in table order.
        cells = matrix(workloads=["chain"], controllers=["null", "surgeguard"])
        assert {c.workload_family for c in cells} == {"chain"}
        assert [c.key for c in cells] == [
            c.key
            for name in FAMILIES
            for c in matrix(families=[name])
            if c.workload_family == "chain" and c.controller in ("null", "surgeguard")
        ]
        assert len(cells) == 6 + 6 + 4  # base, faults, multinode

    def test_unknown_names_rejected(self):
        known = dict(
            families="base", workloads="chain", controllers="null", scenarios="steady"
        )
        for axis, name in known.items():
            assert matrix(**{axis: [name]}), axis
            # One unknown name fails the filter, even beside known ones.
            with pytest.raises(KeyError, match="nope"):
                matrix(**{axis: [name, "nope"]})

    @pytest.mark.parametrize(
        "family, filters",
        [
            ("faults", dict(controllers=["caladan"])),
            ("faults", dict(scenarios=["steady"])),
            ("faults", dict(workloads=["socialNetwork"])),
            ("horizontal", dict(controllers=["surgeguard"])),
            ("horizontal", dict(scenarios=["steady"])),
            ("zoo", dict(controllers=["surgeguard"])),
            ("zoo", dict(scenarios=["rate-spike"])),
            ("multinode", dict(controllers=["statuscale"])),
            ("multinode", dict(scenarios=["steady"])),
        ],
    )
    def test_known_name_selects_nothing_from_a_family_that_lacks_it(
        self, family, filters
    ):
        assert matrix(families=[family], **filters) == []
        # ...while the families that know the name keep their cells.
        assert matrix(**filters)

    def test_fault_cells_carry_plans_with_rpc(self):
        for cell in matrix(families=["faults"]):
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
        assert all(c.config.faults is None for c in matrix(families=["base"]))

    def test_scenario_shapes(self):
        by_key = {
            c.key: c for c in matrix(families=["base"], workloads=["chain"])
        }
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
        assert set(goldens) == {c.key for c in matrix()}

    def test_fault_goldens_record_fault_activity(self):
        goldens = load_goldens()
        for cell in matrix(families=["faults"]):
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
        for cell in matrix(families=["base"]):
            assert "fault_stats" not in goldens[cell.key], cell.key
            assert "errors" not in goldens[cell.key], cell.key

    def test_horizontal_goldens_record_replica_scaling(self):
        goldens = load_goldens()
        for cell in matrix(families=["horizontal"]):
            fp = goldens[cell.key]
            # The autoscaler actually launched replicas inside the cell
            # (otherwise the family pins nothing about the LB tier)...
            assert fp["controller_actions"]["upscale_core"] > 0, cell.key
            # ...and the launched replicas appear as live endpoints.
            assert any("@" in name for name in fp["final_alloc"]), cell.key
            assert "fault_stats" not in fp, cell.key

    def test_zoo_goldens_record_controller_activity(self):
        goldens = load_goldens()
        for cell in matrix(families=["zoo"]):
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


class TestMatrixTier1Cell:
    @pytest.mark.parametrize(
        "key",
        # The cheapest base cell, and its 4-node, jitter-free counterpart.
        ["chain/null/steady", "chain/null/multinode-steady"],
    )
    def test_one_cell_matches_golden(self, key):
        """Cheapest cells in tier-1: catch drift on every PR."""
        family, controller, scenario = key.split("/")
        cells = matrix(
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
    """One slice per family; ``python -m repro.validate`` runs them all."""

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_family_slice(self, family):
        report = run_matrix(matrix(families=[family]), verbose=False)
        failing = [
            (c.scenario.key, c.violations, c.diffs, c.golden_missing)
            for c in report.outcomes
            if not c.ok
        ]
        assert report.ok, failing
        assert report.total_violations == 0
        assert len(report.outcomes) == _FAMILY_SIZES[family]

    def test_update_golden_writes_filtered_set(self, tmp_path):
        cells = matrix(
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
