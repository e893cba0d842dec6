"""TaskGraph construction, validation and topological scheduling."""

import pytest

from repro.exceptions import TaskGraphError
from repro.runtime import TaskGraph, output


def test_topological_order_respects_deps():
    g = TaskGraph()
    g.add("c", lambda: 3, deps=("a", "b"))
    g.add("a", lambda: 1)
    g.add("b", lambda: 2, deps=("a",))
    order = g.topological_order()
    assert order.index("a") < order.index("b") < order.index("c")


def test_insertion_order_breaks_ties():
    g = TaskGraph()
    for name in ("t3", "t1", "t2"):
        g.add(name, lambda: None)
    assert g.topological_order() == ["t3", "t1", "t2"]


def test_output_placeholders_become_deps():
    g = TaskGraph()
    g.add("a", lambda: 1)
    g.add("b", lambda x: x, output("a"))
    g.add("c", lambda x=None: x, x=output("b"))
    assert g.task("b").deps == ("a",)
    assert g.task("c").deps == ("b",)


def test_explicit_and_placeholder_deps_merge_without_dupes():
    g = TaskGraph()
    g.add("a", lambda: 1)
    g.add("b", lambda x: x, output("a"), deps=("a",))
    assert g.task("b").deps == ("a",)


def test_cycle_detection():
    g = TaskGraph()
    g.add("x", lambda v: v, output("y"))
    g.add("y", lambda v: v, output("x"))
    with pytest.raises(TaskGraphError, match="cycle"):
        g.validate()


def test_unknown_dependency_rejected():
    g = TaskGraph()
    g.add("a", lambda: 1, deps=("ghost",))
    with pytest.raises(TaskGraphError, match="ghost"):
        g.validate()


def test_duplicate_name_rejected():
    g = TaskGraph()
    g.add("a", lambda: 1)
    with pytest.raises(TaskGraphError, match="duplicate"):
        g.add("a", lambda: 2)


def test_bad_affinity_rejected():
    g = TaskGraph()
    # "process" is no affinity: the supervised worker pool is the one
    # process venue.
    for affinity in ("gpu", "process"):
        with pytest.raises(TaskGraphError, match="affinity"):
            g.add("a", lambda: 1, affinity=affinity)


def test_non_callable_rejected():
    g = TaskGraph()
    with pytest.raises(TaskGraphError, match="callable"):
        g.add("a", 42)


def test_dependents_reverse_map():
    g = TaskGraph()
    g.add("a", lambda: 1)
    g.add("b", lambda x: x, output("a"))
    g.add("c", lambda x: x, output("a"))
    assert g.dependents()["a"] == ["b", "c"]
