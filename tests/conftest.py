import tracemalloc
from pathlib import Path

import pytest

from manifold_match import experiment, formats


def traced_peak(fn):
    """``(peak, result)``: the most memory ``tracemalloc`` traced at once
    while ``fn()`` ran, in bytes, and what it returned."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


class _FailAfter:
    """A file opened for writing whose first ``writes`` writes go through and
    whose next one raises ``OSError("disk full")``."""

    def __init__(self, fh, writes):
        self._fh, self._writes = fh, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        if self._writes == 0:
            raise OSError("disk full")
        self._writes -= 1
        return self._fh.write(text)


@pytest.fixture
def fail_writing(monkeypatch):
    """``fail_writing(name, writes, skip=0)`` makes the shared writer fail
    part-way through the files called ``name`` after the next ``skip``: the
    temporary sibling of each takes ``writes`` writes, then the disk is full."""

    def arm(name, writes, skip=0):
        opened = 0

        def failing_open(path, mode="r", **kwargs):
            nonlocal opened
            fh = open(path, mode, **kwargs)
            if "w" in mode and Path(path).name == f".{name}.tmp":
                opened += 1
                if opened > skip:
                    return _FailAfter(fh, writes)
            return fh

        monkeypatch.setattr(formats, "open", failing_open, raising=False)

    return arm


@pytest.fixture
def parsed(monkeypatch):
    """The paths whose text ``read_matrix`` parses rather than reads from a twin."""
    paths = []
    by_line = formats._read_matrix_by_line
    monkeypatch.setattr(formats, "_read_matrix_by_line",
                        lambda path: paths.append(str(path)) or by_line(path))
    return paths


@pytest.fixture
def one_blas_thread():
    """Runs the test with OpenBLAS on one thread, set through the setter the
    experiment's pool uses, and gives the caller's count back afterwards.
    BLAS's bits depend on its thread count, so results compared bit for bit
    need one count on both sides. Skips the test where there is no setter."""
    setter = experiment._blas_threads_setter()
    if setter is None:
        pytest.skip("numpy's OpenBLAS setter is absent")
    previous = setter(1)
    yield
    setter(previous)


@pytest.fixture(params=["one-blas-thread", "default-blas-threads"])
def blas_threads(request):
    """Runs the test at one BLAS thread and at BLAS's default count."""
    if request.param == "one-blas-thread":
        request.getfixturevalue("one_blas_thread")
