"""Unit tests for Table II candidate scoring."""

import pytest

from repro.cluster.runtime import RuntimeWindow
from repro.core.config import EXEC_TH, QUEUE_TH, SurgeGuardConfig
from repro.core.scoring import UPSCALE_RULES, score_container


def window(
    exec_time=10e-3,
    exec_metric=10e-3,
    qb=None,
    hints=0,
    ttl=0,
    count=50,
):
    return RuntimeWindow(
        t_start=0.0,
        t_end=0.1,
        count=count,
        avg_exec_time=exec_time,
        avg_conn_wait=exec_time - exec_metric,
        avg_exec_metric=exec_metric,
        queue_buildup=qb if qb is not None else (exec_time / exec_metric),
        upscale_hints=hints,
        max_hint_ttl=ttl,
        avg_time_from_start=1e-3,
    )


CFG = SurgeGuardConfig()
EXPECTED = 10e-3  # expectedExecMetric == expectedExecTime in these tests


class TestTableII:
    """Each row of Table II as a separate check."""

    def test_pkt_upscale_marks_self(self):
        cs = score_container("c", window(hints=3, ttl=2), EXPECTED, EXPECTED, CFG)
        assert cs.hint
        assert cs.self_score == 1

    def test_queue_buildup_marks_downstream_not_self(self):
        cs = score_container("c", window(exec_time=30e-3, exec_metric=10e-3), EXPECTED, EXPECTED, CFG)
        assert cs.queue_violation
        assert cs.marks_downstream
        assert cs.self_score == 0  # condition 2 scores *downstream*

    def test_exec_metric_violation_marks_self(self):
        cs = score_container("c", window(exec_metric=25e-3, exec_time=25e-3), EXPECTED, EXPECTED, CFG)
        assert cs.exec_violation
        assert cs.self_score == 1

    def test_all_three_conditions_score_two_plus_downstream(self):
        cs = score_container(
            "c",
            window(exec_time=60e-3, exec_metric=25e-3, hints=1, ttl=1),
            EXPECTED,
            EXPECTED,
            CFG,
        )
        assert cs.self_score == 2
        assert cs.marks_downstream

    def test_healthy_container_scores_zero(self):
        cs = score_container("c", window(), EXPECTED, EXPECTED, CFG)
        assert not cs.any
        assert cs.self_score == 0

    def test_empty_window_scores_zero(self):
        cs = score_container(
            "c", window(exec_time=1.0, exec_metric=0.1, count=0), EXPECTED, EXPECTED, CFG
        )
        assert not cs.any

    def test_rules_table_matches_paper(self):
        assert UPSCALE_RULES["pkt.upscale > 0"] == "container c"
        assert "downstream" in UPSCALE_RULES["queueBuildup violation"]
        assert UPSCALE_RULES["execMetric violation"] == "container c"


class TestThresholds:
    def test_queue_th_boundary(self):
        at = score_container("c", window(qb=QUEUE_TH), EXPECTED, EXPECTED, CFG)
        above = score_container(
            "c", window(qb=QUEUE_TH + 0.01), EXPECTED, EXPECTED, CFG
        )
        assert not at.queue_violation
        assert above.queue_violation

    def test_exec_th_boundary(self):
        at = score_container(
            "c", window(exec_metric=EXPECTED * EXEC_TH), EXPECTED, EXPECTED, CFG
        )
        above = score_container(
            "c",
            window(exec_metric=EXPECTED * EXEC_TH * 1.01, exec_time=EXPECTED * 1.01),
            EXPECTED,
            EXPECTED,
            CFG,
        )
        assert not at.exec_violation
        assert above.exec_violation


class TestAblationMode:
    """use_new_metrics=False degrades to the dependence-blind check."""

    def test_old_mode_ignores_hints_and_queue(self):
        cfg = SurgeGuardConfig(use_new_metrics=False)
        cs = score_container(
            "c",
            window(exec_time=9e-3, exec_metric=3e-3, hints=5, ttl=3),
            EXPECTED,
            EXPECTED,
            cfg,
        )
        assert not cs.hint
        assert not cs.queue_violation
        assert not cs.exec_violation  # 9ms < 10ms exec-time envelope

    def test_old_mode_uses_raw_exec_time(self):
        cfg = SurgeGuardConfig(use_new_metrics=False)
        cs = score_container(
            "c",
            window(exec_time=30e-3, exec_metric=3e-3),
            EXPECTED,
            EXPECTED,
            cfg,
        )
        assert cs.exec_violation
