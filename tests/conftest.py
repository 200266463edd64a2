import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from hupa import BoxDomain, PointPattern, generate_poisson

# Every property test draws the same bounded examples on every run and
# keeps no example database on disk.
settings.register_profile("hupa", derandomize=True, max_examples=50,
                          deadline=None, database=None)
settings.load_profile("hupa")


@pytest.fixture
def box32():
    return BoxDomain(lengths=(32.0, 32.0))


@pytest.fixture
def poisson32(box32):
    return generate_poisson(box32, 1.0, seed=9)


@pytest.fixture
def small_pattern():
    box = BoxDomain(lengths=(10.0, 10.0))
    pts = np.array([
        [1.0, 1.5], [4.2, 2.1], [7.9, 0.4], [2.5, 5.5],
        [6.1, 6.6], [9.2, 4.8], [0.7, 8.3], [5.0, 9.1],
    ])
    return PointPattern(box=box, points=pts)
