import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from nled import constitutive, energetics, polynomial

# log10 |alpha| and log10 xi over sixty decades, either sign of alpha
PLANE = st.builds(lambda sign, la, lx: polynomial(alpha=sign * 10.0**la, xi=10.0**lx),
                  st.sampled_from([-1.0, 1.0]), st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))


def cold_caches():
    """Clear every lru_cache of nled's loaded modules, each found by its
    cache_clear, so that no cache, one added later included, stays warm in a
    run meant to be cold."""
    for name, module in list(sys.modules.items()):
        if name.startswith("nled."):
            for f in vars(module).values():
                if callable(getattr(f, "cache_clear", None)):
                    f.cache_clear()


class _LoggingGenerator:
    """A numpy Generator that logs the name of each method called on it."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def logged(*args, **kwargs):
            self._log.append(name)
            return attr(*args, **kwargs)
        return logged


@pytest.fixture
def generator_calls(monkeypatch):
    """Make np.random.default_rng hand out logging generators; returns
    calls(run), the generator methods that run() called, in order."""
    log = []
    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args, **kwargs: _LoggingGenerator(make(*args, **kwargs), log))

    def calls(run):
        log.clear()
        run()
        return list(log)
    return calls


@pytest.fixture
def recorded(monkeypatch):
    """recorded(module, name): replace module.name by a wrapper that logs the
    positional arguments of each call, and return that log."""
    def record(module, name):
        log, original = [], getattr(module, name)

        def logging(*args):
            log.append(args)
            return original(*args)
        monkeypatch.setattr(module, name, logging)
        return log
    return record


@pytest.fixture
def floor_layout(monkeypatch):
    """floor_layout(run): run() with the walk's panels 0.5 wide in x for
    every model, the floor width, whatever its singularities allow; the
    reference layout that wider panels must agree with.  The no-cutoff
    records are cleared on entry, so that run() walks under this layout, and
    on exit, so that none walked under it outlives it."""
    def under(run):
        with monkeypatch.context() as patch:
            shape = constitutive._shape
            patch.setattr(constitutive, "_shape", lambda m: shape(m)._replace(width=0.5))
            energetics._unit_record.cache_clear()
            try:
                return run()
            finally:
                energetics._unit_record.cache_clear()
    return under


@pytest.fixture
def full_order(monkeypatch):
    """full_order(run): run() with 16-point panels on every segment of the
    walk, whatever its width and its map's nearest singularity allow; the
    reference layout that each segment's own Gauss order must agree with.
    Its node and no-cutoff record caches are cleared on entry and on exit,
    as floor_layout's records are."""
    def under(run):
        with monkeypatch.context() as patch:
            patch.setattr(constitutive, "_MIN_ORDER", constitutive._MAX_ORDER)
            constitutive._uniform_nodes.cache_clear()
            energetics._unit_record.cache_clear()
            try:
                return run()
            finally:
                constitutive._uniform_nodes.cache_clear()
                energetics._unit_record.cache_clear()
    return under
