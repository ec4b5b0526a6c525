from dataclasses import dataclass, field

import numpy as np
import pytest

from bridgekac.feynman_kac import _node_blocks
from bridgekac.stochastic import RngSeed


@dataclass(frozen=True)
class CountingSeed(RngSeed):
    """RngSeed that logs the key of every generator it opens."""

    opened: list = field(default_factory=list, compare=False)

    def generator(self, *key):
        self.opened.append(key)
        return super().generator(*key)


@pytest.fixture
def counting_seed():
    """The CountingSeed class: call it with a seed to get a logging RngSeed."""
    return CountingSeed


def _bridge_batch(gen, n_steps, n_paths):
    """n_paths one-coordinate bridges drawn from gen by the estimators' sampler
    (`feynman_kac._node_blocks`), one path per row: shape (n_paths, n_steps + 1)."""
    return np.concatenate([alpha[:, :, 0].T.copy()
                           for alpha, _, _ in _node_blocks([gen], n_paths, n_steps, 1)])


@pytest.fixture
def bridge_batch():
    """The estimators' bridges as one array: call it with (generator, n_steps, n_paths)."""
    return _bridge_batch
