"""Validation and value semantics of the declarative fault plans."""

import pickle

import pytest

from repro.faults import (
    ContainerCrash,
    ControllerStall,
    FaultPlan,
    LossWindow,
    RpcPolicy,
)

NAN, INF = float("nan"), float("inf")

#: (start, end, the field a message must name) for the window classes.
WINDOW_CASES = [
    (NAN, 1.0, "start"),
    (-INF, 1.0, "start"),
    (0.0, NAN, "end"),
    (0.0, INF, "end"),
]


class TestWindowValidation:
    def test_empty_loss_window_rejected(self):
        with pytest.raises(ValueError):
            LossWindow(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            LossWindow(2.0, 1.0, 0.5)

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            LossWindow(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            LossWindow(0.0, 1.0, 1.5)
        LossWindow(0.0, 1.0, 1.0)  # total loss is a legal schedule

    def test_crash_validation(self):
        with pytest.raises(ValueError):
            ContainerCrash("c", -1.0, 0.5)
        with pytest.raises(ValueError):
            ContainerCrash("c", 1.0, 0.0)

    def test_stall_validation(self):
        with pytest.raises(ValueError):
            ControllerStall(2.0, 2.0)

    def test_overlapping_loss_windows_rejected(self):
        rpc = RpcPolicy()
        with pytest.raises(ValueError, match="overlapping"):
            FaultPlan(
                loss_windows=(LossWindow(0.0, 2.0, 0.1), LossWindow(1.0, 3.0, 0.1)),
                rpc=rpc,
            )
        # Touching windows are fine.
        FaultPlan(
            loss_windows=(LossWindow(0.0, 1.0, 0.1), LossWindow(1.0, 2.0, 0.1)),
            rpc=rpc,
        )


class TestPolicyValidation:
    def test_bad_parameters_rejected(self):
        for kw in (
            dict(timeout=0.0),
            dict(max_retries=-1),
            dict(backoff_base=-1.0),
            dict(backoff_factor=0.5),
            dict(backoff_jitter=-0.1),
            dict(retry_budget=-0.1),
            dict(retry_burst=0.5),
        ):
            with pytest.raises(ValueError):
                RpcPolicy(**kw)

    def test_loss_without_rpc_rejected(self):
        # A dropped packet with no caller-side timeout hangs its request
        # forever — a deterministic deadlock, not a scenario.
        with pytest.raises(ValueError, match="RpcPolicy"):
            FaultPlan(loss_windows=(LossWindow(0.0, 1.0, 0.5),))
        with pytest.raises(ValueError, match="RpcPolicy"):
            FaultPlan(crashes=(ContainerCrash("c", 1.0, 0.5),))
        # Stalls drop nothing, so they stand alone.
        FaultPlan(stalls=(ControllerStall(0.0, 1.0),))


class TestNonFiniteInput:
    """NaN and infinity fail at construction, naming the field.

    Left through, a NaN bound silently disables its window or backoff
    (every comparison with it is false), and an infinite time fails
    mid-run in the event scheduler without saying which field it was.
    """

    @pytest.mark.parametrize("start, end, field", WINDOW_CASES)
    def test_loss_window(self, start, end, field):
        with pytest.raises(ValueError, match=field):
            LossWindow(start, end, 1.0)

    @pytest.mark.parametrize("start, end, field", WINDOW_CASES)
    def test_controller_stall(self, start, end, field):
        with pytest.raises(ValueError, match=field):
            ControllerStall(start, end)

    @pytest.mark.parametrize("field", ["time", "restart_delay"])
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_container_crash(self, field, value):
        kw = dict(time=1.0, restart_delay=0.5)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            ContainerCrash("c", **kw)

    @pytest.mark.parametrize(
        "field",
        [
            "timeout", "backoff_base", "backoff_factor", "backoff_jitter",
            "retry_budget", "retry_burst",
        ],
    )
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_rpc_policy(self, field, value):
        with pytest.raises(ValueError, match=field):
            RpcPolicy(**{field: value})


class TestPlanValueSemantics:
    def test_empty(self):
        assert FaultPlan().empty
        assert not FaultPlan(rpc=RpcPolicy()).empty
        assert not FaultPlan(stalls=(ControllerStall(0.0, 1.0),)).empty

    def test_picklable_and_hashable(self):
        plan = FaultPlan(
            loss_windows=(LossWindow(1.0, 2.0, 0.3),),
            crashes=(ContainerCrash("c", 1.5, 0.2),),
            stalls=(ControllerStall(0.5, 1.5),),
            rpc=RpcPolicy(),
        )
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert hash(plan) == hash(pickle.loads(pickle.dumps(plan)))
