"""``python -m repro.validate``: the CLI selects cells through ``matrix()``
and refuses a selection that names no cell."""

import pytest

from repro.validate.__main__ import main
from repro.validate.scenarios import matrix


def _listed(capsys, *argv):
    assert main(["--list", *argv]) == 0
    return capsys.readouterr().out.splitlines()


class TestList:
    def test_no_flags_lists_the_whole_matrix_in_order(self, capsys):
        keys = _listed(capsys)
        assert len(keys) == 81
        assert keys == [c.key for c in matrix()]

    def test_the_families_ci_poisons(self, capsys):
        keys = _listed(capsys, "--family", "faults", "--family", "horizontal")
        assert len(keys) == 9 + 6
        assert keys == [c.key for c in matrix(families=["faults", "horizontal"])]

    def test_filters_apply_across_families(self, capsys):
        keys = _listed(capsys, "--controller", "surgeguard", "--scenario", "loss-burst")
        assert keys == ["chain/surgeguard/loss-burst"]


class TestEmptySelection:
    @pytest.mark.parametrize(
        "filters",
        [
            ["--controller", "lsram", "--scenario", "rate-spike"],
            ["--family", "faults", "--workload", "socialNetwork"],
        ],
        ids=["lsram-rate-spike", "faults-socialNetwork"],
    )
    @pytest.mark.parametrize(
        "mode", [[], ["--list"], ["--update-golden"]], ids=["run", "list", "update"]
    )
    def test_exits_2_naming_the_filters(self, capsys, tmp_path, filters, mode):
        golden = tmp_path / "goldens.json"
        with pytest.raises(SystemExit) as exc:
            main([*filters, *mode, "--golden", str(golden)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert " ".join(filters) in captured.err
        assert captured.out == ""
        assert not golden.exists()
