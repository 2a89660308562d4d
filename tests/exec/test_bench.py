"""Smoke tests for the engine microbenchmark (`repro.exec.bench`).

The events/second floor is deliberately conservative — an order of
magnitude below what an idle core sustains — so it only trips on
catastrophic engine regressions (accidental O(n) scans in the hot loop,
runaway heap growth), not on CI noise.  The schema-3 memory section is
gated the opposite way: its churn counters come from the recyclers
themselves, so the ceilings are exact and machine-independent.
"""

import json

import pytest

from repro.cluster.loadbalancer import LB_POLICIES
from repro.exec.bench import (
    CHURN_CEILING_PER_100K,
    ENGINE_FLOOR_EPS,
    GC_GEN2_CEILING,
    HISTORY_MAX,
    LB_DISPATCH_FLOOR,
    PACKET_FLOOR_PPS,
    USERS_FLOOR_UPS,
    append_history,
    bench_engine,
    bench_lb_dispatch,
    bench_memory,
    bench_packet_path,
    bench_users,
    main,
    run_benchmarks,
)


class TestBenchEngine:
    def test_reports_floor_events_per_sec(self):
        # best_of soaks up same-code runner variance (±25 % observed on
        # shared machines); the floor gates the fastest repeat.
        result = bench_engine(50_000, best_of=3)
        assert result["events"] == 50_000
        assert result["events_per_sec"] >= ENGINE_FLOOR_EPS

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            bench_engine(0)

    def test_lazy_cancel_churn_does_not_accumulate(self):
        # Half the scheduled events are cancelled decoys; compaction plus
        # pop-time skipping must keep the pending heap near the live set.
        result = bench_engine(50_000, fanout=32)
        assert result["pending_at_end"] < 5_000


class TestBenchUsers:
    def test_reports_floor_users_per_wall_second(self):
        result = bench_users(3_000)
        assert result["requests"] == 3_000
        assert result["users_per_wall_second"] >= USERS_FLOOR_UPS

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            bench_users(0)


class TestBenchPacketPath:
    def test_reports_floor_packets_per_sec(self):
        result = bench_packet_path(10_000, best_of=3)
        assert result["packets"] == 10_000
        assert result["packets_per_sec"] >= PACKET_FLOOR_PPS
        # FirstResponder's RX hook must have inspected every packet —
        # otherwise the benchmark isn't timing the guarded path.
        assert result["hook_inspected"] == 10_000

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            bench_packet_path(0)


class TestBenchMemory:
    def test_pooled_mode_meets_the_gates(self):
        mem = bench_memory(20_000)
        pooled = mem["pooled"]
        assert pooled["objects_constructed_per_100k"] <= CHURN_CEILING_PER_100K
        assert pooled["gc_collections"][2] <= GC_GEN2_CEILING
        assert pooled["tracemalloc_peak_kb"] > 0

    def test_pooling_cuts_steady_state_churn_at_least_2x(self):
        mem = bench_memory(20_000)
        pooled = mem["pooled"]["objects_constructed"]
        unpooled = mem["unpooled"]["objects_constructed"]
        # Unpooled constructs ~2 objects per packet (packet + handle);
        # pooled steady state recycles everything.  The acceptance bar
        # is >= 2x reduction; in practice pooled churn is zero.
        assert unpooled >= 2 * max(pooled, 1)

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            bench_memory(0)


class TestBenchLbDispatch:
    def test_reports_floor_dispatches_per_sec_for_every_policy(self):
        result = bench_lb_dispatch(30_000)
        assert set(result["policies"]) == set(LB_POLICIES)
        for row in result["policies"].values():
            assert row["dispatches"] == 30_000
        assert result["min_dispatches_per_sec"] >= LB_DISPATCH_FLOOR
        assert result["min_dispatches_per_sec"] == min(
            row["dispatches_per_sec"] for row in result["policies"].values()
        )

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            bench_lb_dispatch(0)


class TestReport:
    _SMALL = dict(
        n_events=20_000,
        n_packets=5_000,
        n_users=1_000,
        n_lb_dispatches=20_000,
    )

    def test_run_benchmarks_shape(self):
        report = run_benchmarks(skip_cell=True, skip_memory=True, **self._SMALL)
        assert report["schema"] == 8
        assert report["machine"]["cpu_count"] >= 1
        assert report["engine"]["events_per_sec"] > 0
        assert report["users"]["users_per_wall_second"] > 0
        assert report["packet_path"]["packets_per_sec"] > 0
        lb = report["lb_dispatch"]
        assert lb["replicas"] == 4
        assert set(lb["policies"]) == set(LB_POLICIES)
        assert lb["min_dispatches_per_sec"] > 0
        assert set(report) == {
            "schema", "generated_at", "machine",
            "engine", "users", "packet_path", "lb_dispatch",
        }

    def test_memory_section_present_by_default(self):
        report = run_benchmarks(skip_cell=True, **self._SMALL)
        mem = report["memory"]
        assert mem["packets"] == 5_000
        assert set(mem) == {"packets", "warmup_packets", "pooled", "unpooled"}

    _SMALL_ARGV = [
        "--events", "20000", "--packets", "5000",
        "--users", "1000", "--lb-dispatches", "20000",
        "--skip-cell",
    ]

    def test_cli_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_exec.json"
        rc = main(
            self._SMALL_ARGV + ["--best-of", "2", "--skip-memory", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 8
        assert report["engine"]["events"] == 20_000
        assert report["engine"]["events_per_sec"] >= ENGINE_FLOOR_EPS
        assert report["packet_path"]["packets"] == 5_000
        assert report["packet_path"]["packets_per_sec"] >= PACKET_FLOOR_PPS
        cli_out = capsys.readouterr().out
        assert "engine:" in cli_out
        assert "users:" in cli_out
        assert "packet:" in cli_out
        assert "lb:" in cli_out

    def test_cli_memory_line(self, tmp_path, capsys):
        out = tmp_path / "BENCH_exec.json"
        rc = main(self._SMALL_ARGV + ["--out", str(out)])
        assert rc == 0
        assert "memory: churn/100k" in capsys.readouterr().out


class TestHistory:
    def test_append_folds_prior_report(self, tmp_path):
        out = tmp_path / "BENCH_exec.json"
        prior = {
            "schema": 2,
            "generated_at": "2026-01-01T00:00:00Z",
            "engine": {"events_per_sec": 111.0},
            "packet_path": {"packets_per_sec": 222.0},
            "cell": {"seconds_per_rep": 3.0},
        }
        out.write_text(json.dumps(prior))
        report = {"schema": 3}
        append_history(report, str(out))
        assert report["history"] == [
            {
                "generated_at": "2026-01-01T00:00:00Z",
                "schema": 2,
                "engine_events_per_sec": 111.0,
                "packet_path_packets_per_sec": 222.0,
                "cell_seconds_per_rep": 3.0,
            }
        ]

    def test_history_accumulates_across_appends(self, tmp_path):
        out = tmp_path / "BENCH_exec.json"
        first = {
            "schema": 2,
            "generated_at": "t0",
            "engine": {"events_per_sec": 1.0},
            "packet_path": {"packets_per_sec": 2.0},
        }
        out.write_text(json.dumps(first))
        second = {
            "schema": 3,
            "generated_at": "t1",
            "engine": {"events_per_sec": 10.0},
            "packet_path": {"packets_per_sec": 20.0},
            "memory": {
                "pooled": {"objects_constructed_per_100k": 0.0},
                "unpooled": {"objects_constructed_per_100k": 200_000.0},
            },
        }
        append_history(second, str(out))
        out.write_text(json.dumps(second))
        third = {"schema": 3, "generated_at": "t2"}
        append_history(third, str(out))
        stamps = [h["generated_at"] for h in third["history"]]
        assert stamps == ["t0", "t1"]
        assert third["history"][1]["churn_per_100k_unpooled"] == 200_000.0

    def test_schema4_rows_are_folded(self, tmp_path):
        out = tmp_path / "BENCH_exec.json"
        prior = {
            "schema": 4,
            "generated_at": "t0",
            "engine": {"events_per_sec": 1.0},
            "engine_density": {"high_density_speedup": 1.7},
            "users": {"users_per_wall_second": 12_345.0},
            "packet_path": {"packets_per_sec": 2.0},
        }
        out.write_text(json.dumps(prior))
        report = {"schema": 4}
        append_history(report, str(out))
        (entry,) = report["history"]
        assert entry["high_density_speedup"] == 1.7
        assert entry["users_per_wall_second"] == 12_345.0

    def test_schema5_lb_row_is_folded(self, tmp_path):
        out = tmp_path / "BENCH_exec.json"
        prior = {
            "schema": 5,
            "generated_at": "t0",
            "lb_dispatch": {"min_dispatches_per_sec": 456_789.0},
        }
        out.write_text(json.dumps(prior))
        report = {"schema": 5}
        append_history(report, str(out))
        (entry,) = report["history"]
        assert entry["lb_min_dispatches_per_sec"] == 456_789.0

    def test_history_is_capped_at_newest_entries(self, tmp_path):
        out = tmp_path / "BENCH_exec.json"
        prior = {
            "schema": 4,
            "generated_at": "new",
            "history": [{"generated_at": f"old-{i}"} for i in range(HISTORY_MAX + 7)],
        }
        out.write_text(json.dumps(prior))
        report = {"schema": 4}
        append_history(report, str(out))
        history = report["history"]
        assert len(history) == HISTORY_MAX
        # Newest entries win: the fold keeps the tail of the series plus
        # the compacted prior report itself.
        assert history[-1]["generated_at"] == "new"
        assert history[0]["generated_at"] == f"old-{HISTORY_MAX + 7 - (HISTORY_MAX - 1)}"

    def test_missing_prior_file_is_ignored(self, tmp_path):
        report = {"schema": 3}
        append_history(report, str(tmp_path / "nope.json"))
        assert "history" not in report

    def test_unparsable_prior_file_is_ignored(self, tmp_path):
        out = tmp_path / "BENCH_exec.json"
        out.write_text("{not json")
        report = {"schema": 3}
        append_history(report, str(out))
        assert "history" not in report
