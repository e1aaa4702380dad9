import re

import numpy as np
import pytest

from twistselmer.selmer import make_pair, scan_twists


class TwistScanData:
    """ord2T of every squarefree twist of y^2 = x^3 + x^2 - x with |d| < X,
    indexed by |d| and sign, plus the per-twist corrections seen.

    Read from the chunks that `twistselmer scan --workers 2` writes: each
    gives its twists.csv rows as text, one row per twist, and their ord2T."""

    def __init__(self, X):
        self.X = X
        self.pos = np.zeros(X, dtype=np.int8)
        self.neg = np.zeros(X, dtype=np.int8)
        self.flags = np.zeros(X, dtype=bool)
        self.corrections = set()
        for text, ord2t in scan_twists(make_pair(1, -1), X, 2):
            rows = re.findall(r"^(-?\d+),-?\d+,(-?\d+),", text, re.M)  # d and the correction
            d = np.array([int(text_d) for text_d, _ in rows], dtype=np.int64)
            values = np.frombuffer(ord2t, dtype=np.int8)
            plus = d > 0
            self.pos[d[plus]] = values[plus]
            self.flags[d[plus]] = True
            self.neg[-d[~plus]] = values[~plus]
            self.corrections.update({int(c) for _, c in rows})

    def ord2t_values(self, X):
        f = self.flags[:X]
        return np.concatenate([self.pos[:X][f], self.neg[:X][f]]).astype(np.float64)


@pytest.fixture(scope="session")
def scan_million():
    """Session-wide full scan of the (1, -1) twist family up to 1e6, on two
    worker processes where two CPUs are available.

    Every per-twist exact identity is asserted inside the descent kernel
    during the scan, so merely building this fixture re-verifies them 1.2M
    times; a failed check raises out of the pool."""
    return TwistScanData(10**6)


@pytest.fixture
def inline_pool(monkeypatch):
    """multiprocessing.Pool replaced by a pool that maps in this process and
    starts none; the list of (processes, tasks) of every pool opened."""
    import multiprocessing

    pools = []

    class InlinePool:
        def __init__(self, processes):
            self.tasks = []
            pools.append((processes, self.tasks))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            self.tasks.extend(tasks)
            return map(fn, self.tasks)

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    return pools
