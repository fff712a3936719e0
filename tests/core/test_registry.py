"""Tests for the generic component registry (repro.core.registry)."""

import pytest

from repro.core.registry import Registry, fold_name


class TestFoldName:
    @pytest.mark.parametrize(
        "raw", ["C-LOOK", "c_look", "clook", " CLook ", "c look"]
    )
    def test_spellings_collapse(self, raw):
        assert fold_name(raw) == "clook"


class TestRegistry:
    def make(self):
        registry = Registry("widget")
        registry.register("Alpha", lambda: "a", aliases=("first",))

        @registry.register("Beta-Two")
        def make_beta():
            return "b"

        return registry

    def test_lookup_and_create(self):
        registry = self.make()
        assert registry["alpha"]() == "a"
        assert registry.create("BETA_TWO") == "b"

    def test_aliases_resolve_to_same_factory(self):
        registry = self.make()
        assert registry["first"] is registry["Alpha"]

    def test_canonical_name(self):
        registry = self.make()
        assert registry.canonical_name("alpha") == "Alpha"
        assert registry.canonical_name("first") == "Alpha"
        assert registry.canonical_name("beta two") == "Beta-Two"

    def test_names_exclude_aliases_keep_order(self):
        assert self.make().names() == ["Alpha", "Beta-Two"]

    def test_mapping_protocol(self):
        registry = self.make()
        assert "alpha" in registry
        assert "first" in registry
        assert "gamma" not in registry
        assert 42 not in registry
        assert len(registry) == 2
        assert list(registry) == ["Alpha", "Beta-Two"]

    def test_unknown_name_error_lists_registered(self):
        registry = self.make()
        with pytest.raises(KeyError, match="unknown widget.*Alpha"):
            registry["gamma"]
        with pytest.raises(KeyError, match="unknown widget"):
            registry.canonical_name("gamma")

    def test_reregistration_replaces(self):
        registry = self.make()
        registry.register("Alpha", lambda: "a2")
        assert registry["alpha"]() == "a2"
        assert registry.names() == ["Alpha", "Beta-Two"]

    def test_decorator_returns_factory(self):
        registry = Registry("widget")

        @registry.register("thing")
        def make_thing():
            return 1

        assert make_thing() == 1


class TestTypoSuggestions:
    def make(self):
        registry = Registry("scheduler")
        for name in ("FCFS", "SPTF", "SXTF", "C-LOOK", "SSTF"):
            registry.register(name, lambda n=name: n)
        return registry

    def test_suggest_close_transposition(self):
        registry = self.make()
        assert registry.suggest("SPFT") == "SPTF"
        assert registry.suggest("cloook") == "C-LOOK"

    def test_suggest_returns_canonical_spelling(self):
        assert self.make().suggest("c_look") == "C-LOOK"

    def test_suggest_gives_up_on_garbage(self):
        assert self.make().suggest("elevator9000") is None

    def test_unknown_error_includes_did_you_mean(self):
        registry = self.make()
        with pytest.raises(KeyError, match="did you mean 'SPTF'"):
            registry["SPFT"]

    def test_unknown_error_without_suggestion_lists_registered(self):
        registry = self.make()
        with pytest.raises(KeyError) as excinfo:
            registry["elevator9000"]
        message = excinfo.value.args[0]
        assert "did you mean" not in message
        assert "FCFS" in message
