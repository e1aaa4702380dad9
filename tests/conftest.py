import numpy as np
import pytest

from twistselmer.selmer import make_pair, scan_twists


class TwistScanData:
    """ord2T of every squarefree twist of y^2 = x^3 + x^2 - x with |d| < 1e6,
    indexed by |d| and sign, plus the per-twist corrections seen."""

    def __init__(self, X):
        self.X = X
        self.pos = np.zeros(X, dtype=np.int8)
        self.neg = np.zeros(X, dtype=np.int8)
        self.flags = np.zeros(X, dtype=bool)
        self.corrections = set()
        pair = make_pair(1, -1)
        for r in scan_twists(pair, X):
            if r.d > 0:
                self.pos[r.d] = r.ord2T_product
                self.flags[r.d] = True
            else:
                self.neg[-r.d] = r.ord2T_product
            self.corrections.add(r.correction)

    def ord2t_values(self, X):
        f = self.flags[:X]
        return np.concatenate([self.pos[:X][f], self.neg[:X][f]]).astype(np.float64)


@pytest.fixture(scope="session")
def scan_million():
    """Session-wide full scan of the (1, -1) twist family up to 1e6.

    Every per-twist exact identity is asserted inside descend during the
    scan, so merely building this fixture re-verifies them 1.2M times.
    """
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
