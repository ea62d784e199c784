"""Tests for the recursive bounding state (Bound / ParentBound / MaxBound)."""

from repro.optimizer.pruning.bounds import INFINITY, BoundsManager
from repro.optimizer.tables import AndKey, OrKey
from repro.relational.expressions import Expression
from repro.relational.properties import ANY_PROPERTY


def or_key(*aliases: str) -> OrKey:
    return OrKey(Expression.of(*aliases), ANY_PROPERTY)


def and_key(*aliases: str, index: int = 1) -> AndKey:
    return AndKey(Expression.of(*aliases), ANY_PROPERTY, index)


class TestBestCostBounds:
    def test_default_bound_is_infinite(self):
        manager = BoundsManager()
        assert manager.bound(or_key("a", "b")) == INFINITY

    def test_best_cost_sets_bound(self):
        manager = BoundsManager()
        change = manager.update_best_cost(or_key("a", "b"), 10.0)
        assert change is not None
        assert change.new_bound == 10.0
        assert manager.bound(or_key("a", "b")) == 10.0

    def test_unchanged_best_cost_returns_none(self):
        manager = BoundsManager()
        manager.update_best_cost(or_key("a"), 5.0)
        assert manager.update_best_cost(or_key("a"), 5.0) is None

    def test_clearing_best_cost_restores_infinity(self):
        manager = BoundsManager()
        manager.update_best_cost(or_key("a"), 5.0)
        change = manager.update_best_cost(or_key("a"), None)
        assert change is not None and change.new_bound == INFINITY


class TestParentContributions:
    def test_parent_contribution_bounds_child(self):
        manager = BoundsManager()
        child = or_key("a")
        parent = and_key("a", "b")
        change = manager.set_contribution(child, (parent, "left"), 7.0)
        assert change is not None and change.new_bound == 7.0
        assert manager.max_parent_bound(child) == 7.0

    def test_bound_is_min_of_best_and_parent(self):
        manager = BoundsManager()
        child = or_key("a")
        manager.update_best_cost(child, 5.0)
        manager.set_contribution(child, (and_key("a", "b"), "left"), 8.0)
        assert manager.bound(child) == 5.0
        manager.set_contribution(child, (and_key("a", "b"), "left"), 3.0)
        assert manager.bound(child) == 3.0

    def test_max_over_multiple_parents(self):
        """A child is only prunable past the *loosest* parent bound (rule r3)."""
        manager = BoundsManager()
        child = or_key("a")
        manager.set_contribution(child, (and_key("a", "b"), "left"), 3.0)
        manager.set_contribution(child, (and_key("a", "c"), "left"), 9.0)
        assert manager.max_parent_bound(child) == 9.0
        assert manager.bound(child) == 9.0

    def test_removing_loosest_parent_tightens_bound(self):
        manager = BoundsManager()
        child = or_key("a")
        manager.set_contribution(child, (and_key("a", "b"), "left"), 3.0)
        manager.set_contribution(child, (and_key("a", "c"), "left"), 9.0)
        change = manager.set_contribution(child, (and_key("a", "c"), "left"), None)
        assert change is not None
        assert manager.bound(child) == 3.0

    def test_updating_contribution_value(self):
        manager = BoundsManager()
        child = or_key("a")
        manager.set_contribution(child, (and_key("a", "b"), "left"), 3.0)
        change = manager.set_contribution(child, (and_key("a", "b"), "left"), 12.0)
        assert change is not None and change.new_bound == 12.0

    def test_identical_contribution_is_silent(self):
        manager = BoundsManager()
        child = or_key("a")
        manager.set_contribution(child, (and_key("a", "b"), "left"), 3.0)
        assert manager.set_contribution(child, (and_key("a", "b"), "left"), 3.0) is None

    def test_removing_absent_contribution_is_silent(self):
        manager = BoundsManager()
        assert manager.set_contribution(or_key("a"), (and_key("a", "b"), "left"), None) is None

    def test_clearing_both_sides_of_a_parent(self):
        manager = BoundsManager()
        left_child = or_key("a")
        right_child = or_key("b")
        parent = and_key("a", "b")
        manager.set_contribution(left_child, (parent, "left"), 4.0)
        manager.set_contribution(right_child, (parent, "right"), 6.0)
        changes = [
            manager.set_contribution(left_child, (parent, "left"), None),
            manager.set_contribution(right_child, (parent, "right"), None),
        ]
        assert all(change is not None for change in changes)
        assert manager.bound(left_child) == INFINITY
        assert manager.bound(right_child) == INFINITY

    def test_int_keys_as_the_optimizer_uses_them(self):
        """Children are OR ids, contributions ``2 * and_id + side``."""
        manager = BoundsManager()
        manager.set_contribution(3, 2 * 7, 5.0)
        manager.set_contribution(3, 2 * 9 + 1, 8.0)
        assert manager.bound(3) == 8.0
        manager.set_contribution(3, 2 * 9 + 1, 2.0)
        assert manager.max_parent_bound(3) == 5.0
        manager.set_contribution(3, 2 * 7, None)
        assert manager.bound(3) == 2.0


class TestBoundChangeDirections:
    def test_increase_and_decrease_flags(self):
        manager = BoundsManager()
        key = or_key("a")
        first = manager.update_best_cost(key, 10.0)
        assert first.decreased and not first.increased
        second = manager.update_best_cost(key, 20.0)
        assert second.increased and not second.decreased
