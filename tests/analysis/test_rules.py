"""Rule tests: the known-bad/known-good fixture corpus of R1–R3, then the
trickier resolution and guard-domination cases per rule.

Every known-bad snippet must fire its rule and every known-good snippet
must stay clean; snippets run with the allowlist disabled, so only the
rule logic is under test.
"""

import pytest

from repro.analysis import ANALYSIS_RULES, all_rules, analyze_source


def rules_hit(source, path="<test>"):
    return [f.rule for f in analyze_source(source, path=path, allowlist={})]


KNOWN_BAD = {
    "R1": (
        "import random\n"
        "rng = random.Random()\n",
        "import random\n"
        "value = random.randint(0, 7)\n",
        "from random import shuffle\n"
        "shuffle(items)\n",
        "import random\n"
        "rng = random.SystemRandom()\n",
    ),
    "R2": (
        "import time\n"
        "def service(self, request):\n"
        "    start = time.time()\n",
        "from time import perf_counter\n"
        "elapsed = perf_counter()\n",
        "from datetime import datetime\n"
        "stamp = datetime.now()\n",
        "import time as clock\n"
        "t0 = clock.monotonic()\n",
    ),
    "R3": (
        "def pop_next(self, now):\n"
        "    self.tracer.emit({'kind': 'sched.dispatch', 't': now})\n",
        "def run(tracer, now):\n"
        "    tracer.emit({'kind': 'sim.start', 't': now})\n",
        # Guard on a *different* tracer object does not count.
        "def run(self, tracer, now):\n"
        "    if self.tracer.enabled:\n"
        "        tracer.emit({'kind': 'sim.start', 't': now})\n",
        # A negated guard around the emit is not a guard.
        "def run(tracer, now):\n"
        "    if not tracer.enabled:\n"
        "        tracer.emit({'kind': 'sim.start', 't': now})\n",
    ),
}

KNOWN_GOOD = {
    "R1": (
        "import random\n"
        "rng = random.Random(42)\n"
        "value = rng.randint(0, 7)\n",
        "import random\n"
        "def generate(rng: random.Random):\n"
        "    return rng.random()\n",
    ),
    "R2": (
        "def service(self, request, now=0.0):\n"
        "    return now + self.estimate(request)\n",
        "import time\n"
        "def pause():\n"
        "    time.sleep(0.1)\n",
    ),
    "R3": (
        "def run(tracer, now):\n"
        "    if tracer.enabled:\n"
        "        tracer.emit({'kind': 'sim.start', 't': now})\n",
        "def pop_next(self, now):\n"
        "    tracer = self.tracer\n"
        "    if tracer.enabled:\n"
        "        tracer.emit({'kind': 'sched.dispatch', 't': now})\n",
        "def trace(self, now):\n"
        "    if not self.tracer.enabled:\n"
        "        return\n"
        "    self.tracer.emit({'kind': 'x', 't': now})\n",
        "def run(tracer, now):\n"
        "    if not tracer.enabled:\n"
        "        pass\n"
        "    else:\n"
        "        tracer.emit({'kind': 'sim.start', 't': now})\n",
    ),
}


def _cases(corpus):
    return [
        pytest.param(rule_id, snippet, id=f"{rule_id}-{index}")
        for rule_id, snippets in corpus.items()
        for index, snippet in enumerate(snippets)
    ]


@pytest.mark.parametrize("rule_id, snippet", _cases(KNOWN_BAD))
def test_bad_fixtures_fire_their_rule(rule_id, snippet):
    assert rule_id in rules_hit(snippet), snippet


@pytest.mark.parametrize("rule_id, snippet", _cases(KNOWN_GOOD))
def test_good_fixtures_stay_clean(rule_id, snippet):
    assert rules_hit(snippet) == [], snippet


def test_every_rule_has_fixture_coverage():
    rule_ids = {rule.id for rule in all_rules()}
    assert set(KNOWN_BAD) == set(KNOWN_GOOD) == rule_ids


def test_rule_registry_is_complete():
    assert ANALYSIS_RULES.names() == ["R1", "R2", "R3"]
    assert ANALYSIS_RULES.canonical_name("unseeded-rng") == "R1"


class TestR1UnseededRNG:
    def test_aliased_module_import(self):
        source = "import random as rnd\nx = rnd.randint(0, 9)\n"
        assert "R1" in rules_hit(source)

    def test_from_import_function(self):
        source = "from random import choice\npick = choice([1, 2])\n"
        assert "R1" in rules_hit(source)

    def test_unseeded_construction_flagged_seeded_ok(self):
        assert "R1" in rules_hit("import random\nr = random.Random()\n")
        assert "R1" not in rules_hit("import random\nr = random.Random(7)\n")

    def test_seed_via_keyword_ok(self):
        source = "import random\nr = random.Random(x=3)\n"
        assert "R1" not in rules_hit(source)

    def test_instance_methods_not_flagged(self):
        # rng.random() on a local instance is the sanctioned pattern.
        source = (
            "import random\n"
            "rng = random.Random(1)\n"
            "x = rng.random()\n"
            "y = rng.shuffle([1, 2])\n"
        )
        assert rules_hit(source) == []

    def test_unrelated_module_random_attr_not_flagged(self):
        source = "import mylib\nx = mylib.random()\n"
        assert "R1" not in rules_hit(source)


class TestR2WallClock:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.perf_counter_ns()\n",
            "from time import monotonic\nt = monotonic()\n",
            "import datetime\nt = datetime.datetime.utcnow()\n",
            "from datetime import date\nt = date.today()\n",
        ],
    )
    def test_wall_clock_reads_flagged(self, snippet):
        assert "R2" in rules_hit(snippet)

    def test_simulated_clock_ok(self):
        source = (
            "def service(self, request, now=0.0):\n"
            "    return now + 0.001\n"
        )
        assert rules_hit(source) == []

    def test_allowlisted_path_exempt(self):
        source = "import time\nstart = time.time()\n"
        findings = analyze_source(
            source, path="src/repro/experiments/runner.py"
        )
        assert [f for f in findings if f.rule == "R2"] == []
        # Same code in device-model territory is an error.
        findings = analyze_source(source, path="src/repro/mems/device.py")
        assert [f.rule for f in findings] == ["R2"]


class TestR3UnguardedEmit:
    def test_guard_must_match_same_tracer_object(self):
        source = (
            "def run(self, other_tracer, now):\n"
            "    if self.tracer.enabled:\n"
            "        other_tracer.emit({'kind': 'x', 't': now})\n"
        )
        assert "R3" in rules_hit(source)

    def test_guard_through_local_rebinding(self):
        source = (
            "def run(self, now):\n"
            "    tracer = self.tracer\n"
            "    if tracer.enabled:\n"
            "        tracer.emit({'kind': 'x', 't': now})\n"
        )
        assert rules_hit(source) == []

    def test_early_return_guard(self):
        source = (
            "def run(tracer, now):\n"
            "    if not tracer.enabled:\n"
            "        return\n"
            "    tracer.emit({'kind': 'x', 't': now})\n"
        )
        assert rules_hit(source) == []

    def test_guard_does_not_cross_function_boundary(self):
        # The helper must re-check; the caller's guard doesn't dominate it.
        source = (
            "def outer(tracer, now):\n"
            "    if tracer.enabled:\n"
            "        def helper():\n"
            "            tracer.emit({'kind': 'x', 't': now})\n"
            "        helper()\n"
        )
        assert "R3" in rules_hit(source)

    def test_emit_in_else_of_negated_guard_ok(self):
        source = (
            "def run(tracer, now):\n"
            "    if not tracer.enabled:\n"
            "        pass\n"
            "    else:\n"
            "        tracer.emit({'kind': 'x', 't': now})\n"
        )
        assert rules_hit(source) == []

    def test_non_tracer_emit_ignored(self):
        assert rules_hit("def f(bus):\n    bus.emit('signal')\n") == []
