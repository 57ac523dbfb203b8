"""Unit tests for the batch timeline's conflict check.

A synthetic two-iteration timeline over seven sizes exercises the three
ways a conflict pair is judged: a strict inversion, a ``touch_ok`` pair
that commutes at some sizes, and equal-time pairs settled by the
push-order reconstruction.  Judging each iteration as it drains must give
the same divergence mask and signature clusters as one drain over both
iterations judged once at its end.
"""

import numpy as np
import pytest

from repro.sim.batchline import BatchDivergence, BatchTimeline, uniform_bool

WIDTH = 7
T, F = True, False

#: sizes flagged by the first iteration alone, and by both
AFTER_FIRST = [F, T, T, T, T, F, F]
AFTER_BOTH = [F, T, T, T, T, T, F]
#: sizes sharing a divergence signature
CLUSTERS = [(1,), (2,), (3, 4), (5,)]


def _vec(*times):
    return np.array(times, dtype=float)


def _access(tl, key, ok=None):
    def fn(_value):
        if ok is None:
            tl.touch(key)
        else:
            tl.touch_ok(key, ok)
    return fn


def _pusher(tl, time, key):
    def fn(_value):
        tl.call(time, _access(tl, key))
    return fn


def _first_iteration(tl, base):
    """Pivot order A, B, C, D, P, Q, E, F (pivot times 1..8)."""
    # strict: B fires before A at sizes 3 and 4
    tl.call(base + _vec(1, 1, 1, 1, 1, 1, 1), _access(tl, "lane"))
    tl.call(base + _vec(2, 2, 2, .5, .5, 2, 2), _access(tl, "lane"))
    # commuting: D fires before C at sizes 1, 2 and 6, harmless where both
    # sides are ok — everywhere but size 2
    tl.call(base + _vec(3, 3, 3, 3, 3, 3, 3),
            _access(tl, "queue", np.array([T, T, F, T, T, T, T])))
    tl.call(base + _vec(4, 2.5, 2.5, 4, 4, 4, 2.5),
            _access(tl, "queue", True))
    # ties: P pushes E and Q pushes F; E and F fire together at sizes 1, 2
    # and 6, and the scalar run there pops first the one pushed first,
    # i.e. the child of the earlier parent: F at size 1 (Q before P),
    # E at sizes 2 and 6 (the batch order)
    tl.call(base + _vec(5, 5, 5, 5, 5, 5, 5),
            _pusher(tl, base + _vec(7, 7, 7, 7, 7, 7, 7), "tie"))
    tl.call(base + _vec(6, 4, 6, 6, 6, 6, 6),
            _pusher(tl, base + _vec(8, 7, 7, 8, 8, 8, 7), "tie"))


def _second_iteration(tl, base):
    # strict: H fires before G at sizes 3, 4 and 5
    tl.call(base + _vec(1, 1, 1, 1, 1, 1, 1), _access(tl, "lane"))
    tl.call(base + _vec(2, 2, 2, .5, .5, .5, 2), _access(tl, "lane"))


def _clusters(labels):
    groups = {}
    for s, lab in enumerate(labels):
        if lab >= 0:
            groups.setdefault(int(lab), []).append(s)
    return sorted(tuple(g) for g in groups.values())


def test_each_iteration_is_judged_when_it_drains():
    tl = BatchTimeline(WIDTH)
    _first_iteration(tl, 0.0)
    tl.run()
    assert tl.order_divergence().tolist() == AFTER_FIRST
    # the verdict is final: a later iteration only adds sizes
    _second_iteration(tl, 100.0)
    tl.run()
    divergent = tl.order_divergence()
    assert divergent.tolist() == AFTER_BOTH
    assert _clusters(tl.divergence_labels(divergent)) == CLUSTERS


def test_per_iteration_verdict_equals_one_check_at_the_end():
    """Both iterations in one drain: the pairs between them are never
    inverted (the second starts after the first at every size), so the
    one end-of-run check judges exactly the per-iteration pairs."""
    per_iteration = BatchTimeline(WIDTH)
    _first_iteration(per_iteration, 0.0)
    per_iteration.run()
    _second_iteration(per_iteration, 100.0)
    per_iteration.run()
    once = BatchTimeline(WIDTH)
    _first_iteration(once, 0.0)
    _second_iteration(once, 100.0)
    once.run()
    a = per_iteration.order_divergence()
    b = once.order_divergence()
    assert a.tolist() == b.tolist() == AFTER_BOTH
    assert (_clusters(per_iteration.divergence_labels(a))
            == _clusters(once.divergence_labels(b)) == CLUSTERS)
    # each drain's final clock is the elementwise max over its pops
    assert (per_iteration.now.tolist() == once.now.tolist()
            == [102, 102, 102, 101, 101, 101, 102])


def test_labels_of_sizes_flagged_from_outside_form_one_cluster():
    tl = BatchTimeline(3)
    tl.call(_vec(1, 1, 1), _access(tl, "lane"))
    tl.run()
    labels = tl.divergence_labels(np.array([F, T, T]))
    assert labels.tolist() == [-1, 0, 0]


@pytest.mark.parametrize("mask,want", [
    ([T, T, T], True), ([F, F, F], False), (True, True), (False, False),
])
def test_uniform_bool_collapses_uniform_masks(mask, want):
    assert uniform_bool(np.array(mask) if isinstance(mask, list)
                        else mask) is want


@pytest.mark.parametrize("mask", [[T, F, T], [F, T, F], [F, F, T]])
def test_uniform_bool_splits_mixed_masks(mask):
    with pytest.raises(BatchDivergence) as info:
        uniform_bool(np.array(mask))
    assert info.value.mask.tolist() == mask
