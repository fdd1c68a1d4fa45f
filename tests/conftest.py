import os
import threading

import numpy as np
import pytest

from crmn.data import synth_dataset


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Every test ends with as many live threads as it started with."""
    threads = threading.active_count()
    yield
    assert threading.active_count() == threads, threading.enumerate()


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """Every test ends with no child process left, running or unreaped."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)  # (0, 0) while one runs; reaps one that ended
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"a child process outlived its test: waitpid gave {left}")


@pytest.fixture(scope="session")
def tiny_synth():
    """3 classes x 12 images, enough for quick train smoke tests."""
    return synth_dataset(3, 12, seed=7)


def tensor64(rng, *shape, requires_grad=True):
    from crmn.tensor import Tensor
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad,
                  dtype=np.float64)
