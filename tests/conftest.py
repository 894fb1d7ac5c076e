import numpy as np
import pytest


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
