"""The path allowlist: whole files exempt from specific rules."""

from repro.analysis import all_rules, analyze_source, path_allowlisted
from repro.analysis.suppress import DEFAULT_ALLOWLIST


class TestAllowlist:
    def test_runner_exempt_from_wall_clock(self):
        assert path_allowlisted("R2", "src/repro/experiments/runner.py")
        assert not path_allowlisted("R2", "src/repro/sim/engine.py")

    def test_obs_sinks_exempt_from_emit_guard(self):
        assert path_allowlisted("R3", "src/repro/obs/tracer.py")
        assert not path_allowlisted("R3", "src/repro/sim/engine.py")

    def test_allowlist_is_per_rule(self):
        assert not path_allowlisted("R1", "src/repro/experiments/runner.py")

    def test_default_allowlist_used_by_analyze_source(self):
        source = "import time\nt = time.time()\n"
        assert analyze_source(source, path="src/repro/experiments/runner.py") == []
        assert analyze_source(source, path="src/repro/core/power/model.py") != []

    def test_custom_allowlist_overrides_default(self):
        source = "import time\nt = time.time()\n"
        findings = analyze_source(
            source,
            path="src/repro/experiments/runner.py",
            allowlist={"R2": ("nowhere/*",)},
        )
        assert [f.rule for f in findings] == ["R2"]

    def test_default_allowlist_rules_exist(self):
        assert set(DEFAULT_ALLOWLIST) <= {rule.id for rule in all_rules()}
