"""The compact modification manager behaves exactly like the reference one.

:mod:`modmanager_reference` keeps an ``IntervalSet`` for every touched
chunk; the production manager records a fully mirrored chunk as a member
of a set and keeps intervals only for partly mirrored chunks. Both are
driven with the same seeded random operation sequences (plan-following
fetches and fills, raw fills and writes that may break strategy 2, every
planning call and query, commits and persistence round trips), with
``enforce_contiguity`` on and off, and every output must be equal,
including the errors raised and the state left behind by a failed write.
"""

import json
import random

import pytest

from repro.common.errors import MirrorStateError
from repro.core.modmanager import ModificationManager

from modmanager_reference import ModificationManager as ReferenceManager

CS = 64
#: a short last chunk, so chunk bounds are not all ``CS`` wide
IMG = 6 * CS + 20


def _call(mgr, name, *args):
    """``(result, None)`` or ``(None, (error type, message))``."""
    try:
        return getattr(mgr, name)(*args), None
    except MirrorStateError as exc:
        return None, (type(exc), str(exc))


def _rand_range(rng: random.Random):
    lo = rng.randrange(IMG)
    span = rng.choice((1, 7, CS // 2, CS, 2 * CS + 5))
    return lo, min(IMG, lo + rng.randint(1, span))


def _rand_chunk_piece(rng: random.Random, n_chunks: int):
    idx = rng.randrange(n_chunks)
    c_lo, c_hi = idx * CS, min(idx * CS + CS, IMG)
    lo = rng.randrange(c_lo, c_hi)
    return idx, lo, rng.randint(lo + 1, c_hi)


def _state(mgr) -> list:
    """Everything observable, in a form that compares across the two."""
    return [
        mgr.to_state(),
        mgr.mirrored_bytes(),
        mgr.dirty_bytes(),
        mgr.dirty_chunks(),
        [mgr.mirrored_interval(i) for i in range(mgr.n_chunks)],
        [mgr.plan_complete_chunk(i) for i in range(mgr.n_chunks)],
    ]


def _step(rng: random.Random, new, ref):
    """One random operation applied to both; returns both outcomes."""
    op = rng.choice((
        "fetch", "fill", "write", "faithful-read", "faithful-write",
        "plan_read", "plan_write", "plan_read_exact", "plan_complete_chunk",
        "is_mirrored", "mirrored_bytes", "clear_dirty",
    ))
    if op == "fetch":
        args = (rng.randrange(new.n_chunks),)
        return [_call(m, "record_fetch", *args) for m in (new, ref)]
    if op == "fill":
        args = _rand_chunk_piece(rng, new.n_chunks)
        return [_call(m, "record_fill", *args) for m in (new, ref)]
    if op == "write":
        args = _rand_range(rng)
        return [_call(m, "record_write", *args) for m in (new, ref)]
    if op == "faithful-read":
        lo, hi = _rand_range(rng)
        out = []
        for m in (new, ref):
            plan = m.plan_read(lo, hi)
            for idx in plan.fetch_chunks:
                m.record_fetch(idx)
            out.append((plan, m.is_mirrored(lo, hi)))
        return out
    if op == "faithful-write":
        lo, hi = _rand_range(rng)
        out = []
        for m in (new, ref):
            plan = m.plan_write(lo, hi)
            for idx, (g_lo, g_hi) in plan.gap_fills:
                m.record_fill(idx, g_lo, g_hi)
            out.append((plan, _call(m, "record_write", lo, hi)))
        return out
    if op in ("plan_read", "plan_write", "plan_read_exact", "is_mirrored"):
        args = _rand_range(rng)
        return [_call(m, op, *args) for m in (new, ref)]
    if op == "plan_complete_chunk":
        args = (rng.randrange(new.n_chunks),)
        return [_call(m, op, *args) for m in (new, ref)]
    return [_call(m, op) for m in (new, ref)]


@pytest.mark.parametrize("enforce", [True, False], ids=["contiguity-on", "contiguity-off"])
@pytest.mark.parametrize("seed", range(40))
def test_random_sequences_match_reference(seed, enforce):
    rng = random.Random(seed)
    new = ModificationManager(IMG, CS, enforce_contiguity=enforce)
    ref = ReferenceManager(IMG, CS, enforce_contiguity=enforce)
    for step in range(120):
        got, want = _step(rng, new, ref)
        assert got == want, f"seed {seed} step {step}"
        assert _state(new) == _state(ref), f"seed {seed} step {step}"
        if rng.random() < 0.05:
            # persistence: each reloads its own state, through JSON (which
            # stringifies the chunk keys), as the FUSE module does on re-open
            state = json.loads(json.dumps(new.to_state()))
            assert state == json.loads(json.dumps(ref.to_state()))
            (got, got_err), (want, want_err) = (
                _call(cls, "from_state", state) for cls in (ModificationManager, ReferenceManager)
            )
            # a state a raw fill fragmented is refused by both
            assert got_err == want_err
            if got_err is None:
                new, ref = got, want
                assert _state(new) == _state(ref)


def test_fills_completing_a_chunk_make_it_full():
    """A chunk covered piece by piece ends in the full set, not as intervals."""
    m = ModificationManager(IMG, CS)
    m.record_fill(1, CS, CS + 10)
    m.record_write(CS + 10, CS + 40)
    assert 1 in m._mirrored and 1 not in m._full
    m.record_fill(1, CS + 40, 2 * CS)
    assert 1 in m._full and 1 not in m._mirrored
    m.record_fetch(6)  # the short last chunk
    assert m.mirrored_bytes() == CS + (IMG - 6 * CS)
    assert m.to_state()["mirrored"] == {1: [(CS, 2 * CS)], 6: [(6 * CS, IMG)]}
