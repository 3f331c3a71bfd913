"""Mutation checks: each rule of the engine has a mutant that some distance kills.

A row is (source fragment, replacement, what the mutant breaks).  The
fragment must occur exactly once in ``branching.py``, so a stale row fails
loudly instead of passing vacuously.  The mutant is compiled in memory as a
module of the ``abdkit`` package, so nothing is written under ``src/``.  It
is killed when the ``float.hex`` of d_B on a fixed pair set differs from the
engine's, or when it raises; the check stops at the first difference.  Every
tree's branch table is dropped before each distance, so a mutant builds and
reads its own table, never the engine's.

Equivalent mutants get no row: they change how much work is done but no
distance.  Tried and left out: ``low >= cutoff`` -> ``>``, ``saddles >=
cutoff`` -> ``>``, ``cost >= best`` -> ``>``, ``rx[a] > cost`` -> ``>=``,
Hall's ``r[c] >= best`` -> ``> best`` (it counts fewer slots, so it skips
fewer pairs, each still rightly), dropping Hall's ``t >= best`` gate,
counting the side with fewer slots, and passing ``cutoff`` for ``best`` to
``value``.
"""

import types
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from abdkit import branching
from abdkit.fixtures import tree_counterexample
from abdkit.synth import random_merge_tree

from conftest import random_caterpillar, random_star

SOURCE = Path(branching.__file__).read_text()

BRANCHING_MUTANTS = [
    ("                if free < 0:", "                if free <= 0:",
     "Hall: skips a pair whose heavy slots exactly fill the other side"),
    ("                    if r[c] >= best:", "                    if r[c] > cost:",
     "Hall: counts slots removable below best as needing a partner"),
    ("if tx <= cost and ty <= cost:", "if tx <= cost:",
     "leaf-pair shortcut: settles a pair whose y side has a heavy slot"),
    ("own.append((lv, m, hung + off, r))", "own.append((lv, m, hung, r))",
     "table: a branch loses its siblings from its slots"),
    ("top = removal[d]", "pass",
     "table: a branch's largest removal cost leaves out its siblings"),
    ("            if r and r[0][0] < removal:", "            if False:",
     "value: a slot is scored by its removal cost alone, not its best partner"),
    ("r.append((w, nx + c))", "r.append((w, c))",
     "value: an x slot's partners are tagged as x slots"),
    ("rxy = rx + ry", "rxy = rx + rx",
     "value: y's slots read x's removal costs"),
]


def _build(source):
    module = types.ModuleType("abdkit._mutant_branching")
    module.__package__ = "abdkit"
    exec(compile(source, branching.__file__, "exec"), module.__dict__)
    return module


def _kill_pairs():
    """Random pairs of up to 12 leaves (a third integer-valued, so that
    costs tie), stars against caterpillars of another size, and the frozen
    tree triple, each pair in both orders."""
    rng = np.random.default_rng(15)
    pairs = []
    for i in range(60):
        pairs.append((random_merge_tree(rng, 12, integer_values=i % 3 == 2),
                      random_merge_tree(rng, 12, integer_values=i % 3 == 2)))
    for k, m in ((3, 5), (6, 4), (8, 11)):
        pairs.append((random_star(rng, k, integer_values=k % 2 == 0),
                      random_caterpillar(rng, m, integer_values=m % 2 == 0)))
    pairs += combinations(tree_counterexample(), 2)
    return [(a, b) for x, y in pairs for a, b in ((x, y), (y, x))]


def _distances(module, pairs):
    for x, y in pairs:
        x.branch_table = y.branch_table = None  # each module builds its own tables
        try:
            yield module.branching_distance(x, y).hex()
        except Exception as exc:  # a mutant that raises is killed too
            yield repr(exc)


@pytest.fixture(scope="module")
def engine():
    pairs = _kill_pairs()
    return pairs, list(_distances(branching, pairs))


def test_unmutated_build_matches_the_engine(engine):
    # the in-memory build itself changes no distance, so a kill is the mutant's
    pairs, want = engine
    assert list(_distances(_build(SOURCE), pairs)) == want


@pytest.mark.parametrize("fragment, replacement, breaks", BRANCHING_MUTANTS,
                         ids=[f"{i}-{row[2].split(':')[0].replace(' ', '-')}"
                              for i, row in enumerate(BRANCHING_MUTANTS)])
def test_branching_mutant_is_killed(engine, fragment, replacement, breaks):
    assert SOURCE.count(fragment) == 1, f"stale row ({breaks}): fragment not found exactly once"
    pairs, want = engine
    mutant = _build(SOURCE.replace(fragment, replacement))
    assert any(got != w for got, w in zip(_distances(mutant, pairs), want)), f"survived: {breaks}"
