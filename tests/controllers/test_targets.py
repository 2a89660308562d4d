"""Unit tests for target configuration (the artifact's config files)."""

import pytest

from repro.cluster.runtime import RuntimeWindow
from repro.controllers.targets import TargetConfig


def window(exec_time=10e-3, wait=2e-3, tfs=5e-3, count=100):
    metric = exec_time - wait
    return RuntimeWindow(
        t_start=0.0,
        t_end=1.0,
        count=count,
        avg_exec_time=exec_time,
        avg_conn_wait=wait,
        avg_exec_metric=metric,
        queue_buildup=exec_time / metric,
        upscale_hints=0,
        max_hint_ttl=0,
        avg_time_from_start=tfs,
    )


class TestFromWindows:
    def test_two_x_multiplier(self):
        t = TargetConfig.from_windows({"a": window()}, qos_target=0.1)
        assert t.expected_exec_time["a"] == pytest.approx(20e-3)
        assert t.expected_exec_metric["a"] == pytest.approx(16e-3)

    def test_tfs_multiplier_independent(self):
        t = TargetConfig.from_windows({"a": window()}, qos_target=0.1)
        assert t.expected_time_from_start["a"] == pytest.approx(20e-3)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="no requests"):
            TargetConfig.from_windows({"a": window(count=0)}, qos_target=0.1)

    def test_invalid_qos_rejected(self):
        with pytest.raises(ValueError):
            TargetConfig.from_windows({"a": window()}, qos_target=0.0)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError):
            TargetConfig(
                expected_exec_metric={"a": 0.0},
                expected_exec_time={"a": 1.0},
                expected_time_from_start={"a": 1.0},
                qos_target=1.0,
            )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
class TestNonFiniteRejected:
    """``v <= 0`` alone lets NaN through, and a NaN limit is one that no
    latency ever violates."""

    def test_qos_target(self, bad):
        with pytest.raises(ValueError, match="^qos_target must be finite"):
            TargetConfig.from_windows({"a": window()}, qos_target=bad)

    @pytest.mark.parametrize(
        "field", ["expected_exec_metric", "expected_exec_time", "expected_time_from_start"]
    )
    def test_per_container_target(self, bad, field):
        targets = {
            "expected_exec_metric": {"a": 1.0},
            "expected_exec_time": {"a": 1.0},
            "expected_time_from_start": {"a": 1.0},
        }
        targets[field] = {"a": bad}
        with pytest.raises(ValueError, match=rf"^{field}\['a'\] must be finite"):
            TargetConfig(**targets, qos_target=1.0)
