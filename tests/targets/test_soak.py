"""Soak harness: containment invariants hold under hostile traffic."""

import json

from repro.targets.soak import SoakConfig, render_summary, run_soak, soak_program


def quick_config(**kw):
    kw.setdefault("programs", ["P4"])
    kw.setdefault("packets", 1500)
    kw.setdefault("seed", 99)
    kw.setdefault("fault_rate", 0.2)
    return SoakConfig(**kw)


class TestInvariants:
    def test_no_uncaught_and_exact_ledger(self):
        summary = run_soak(quick_config())
        assert summary["ok"]
        block = summary["programs"]["P4"]
        assert block["uncaught"] == []
        assert block["unbalanced_verdicts"] == 0
        assert block["ledger_ok"]
        assert block["units"] == block["emits"] + block["drops"]
        assert block["packets"] == 1500

    def test_fault_free_run_is_clean_too(self):
        block = soak_program(quick_config(fault_rate=0.0), "P4")
        assert block["uncaught"] == []
        assert block["ledger_ok"]
        assert block["fault_trips"] == {}

    def test_mono_mode_surfaces_truncated_extract(self):
        block = soak_program(quick_config(mode="mono"), "P4")
        assert block["ledger_ok"]
        # The corpus truncates valid packets; the native parser must
        # contain those as truncated-extract drops, not exceptions.
        assert block["drops_by_reason"].get("truncated-extract", 0) > 0

    def test_faults_actually_fire(self):
        block = soak_program(quick_config(), "P4")
        assert sum(block["fault_trips"].values()) > 0
        assert block["drops"] > 0

    def test_summary_is_json_able(self):
        summary = run_soak(quick_config(packets=200))
        text = json.dumps(summary)
        assert json.loads(text)["ok"] is True

    def test_render_summary_mentions_result(self):
        summary = run_soak(quick_config(packets=200))
        text = render_summary(summary)
        assert "result: OK" in text
        assert "accounting:" in text


class TestDeterminism:
    def test_same_seed_same_digest(self):
        a = run_soak(quick_config())
        b = run_soak(quick_config())
        assert a["digest"] == b["digest"]
        assert (
            a["programs"]["P4"]["drops_by_reason"]
            == b["programs"]["P4"]["drops_by_reason"]
        )
        assert a["programs"]["P4"]["fault_trips"] == b["programs"]["P4"]["fault_trips"]

    def test_different_seed_different_digest(self):
        a = run_soak(quick_config(seed=99))
        b = run_soak(quick_config(seed=100))
        assert a["digest"] != b["digest"]

    def test_fault_spec_overrides_rate(self):
        config = quick_config(
            fault_spec={"sites": {"table:ipv4_lpm_tbl": 1.0}}, packets=300
        )
        block = soak_program(config, "P4")
        assert block["ledger_ok"]
        trips = block["fault_trips"]
        assert set(trips) == {"table:ipv4_lpm_tbl"}
        assert block["drops_by_reason"].get("extern-fault", 0) == trips[
            "table:ipv4_lpm_tbl"
        ]

    def test_digest_ignores_wall_clock(self, monkeypatch):
        """The digest covers only the verdict stream: two same-seed runs
        with wildly different timings must agree bit-for-bit."""
        import repro.targets.engine as engine_mod

        baseline = soak_program(quick_config(packets=300), "P4")

        ticks = iter(range(0, 10_000_000, 37))

        def jittery_clock():
            # Strictly increasing but absurd: every call jumps 37s.
            return float(next(ticks))

        # The soak loop is the engine's ``_consume``; patch its clock.
        monkeypatch.setattr(engine_mod.time, "perf_counter", jittery_clock)
        jittered = soak_program(quick_config(packets=300), "P4")
        assert jittered["elapsed_s"] != baseline["elapsed_s"]
        assert jittered["digest"] == baseline["digest"]

    def test_routable_traffic_is_deterministic_and_forwards(self):
        config = quick_config(packets=300, fault_rate=0.0, traffic="routable")
        a = soak_program(config, "P4")
        b = soak_program(config, "P4")
        assert a["digest"] == b["digest"]
        assert a["ledger_ok"]
        # Routable traffic keeps packets on the table fast path: most
        # should actually forward rather than drop.
        assert a["emits"] > a["packets"] // 2

    def test_unknown_traffic_mix_rejected(self):
        import pytest

        from repro.errors import TargetError

        with pytest.raises(TargetError, match="unknown traffic mix"):
            soak_program(quick_config(traffic="jumbo"), "P4")
