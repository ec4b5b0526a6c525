from dataclasses import dataclass, field

import pytest

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
