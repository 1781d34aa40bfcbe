import math

import numpy as np
import pytest

from a1embed import new_params


def numpy_power_rounding() -> str:
    """How this host's np.power rounds eta^k: "avx512" or "libm".

    numpy picks np.power's float64 loop at run time.  Its AVX512 loop rounds
    some eta^k apart from libm's math.pow (24 of k = 0..399 at Q = 5, d = 3);
    the other loops give math.pow's bits.  plot-data and the samplers print
    np.power's eta^k, so a few golden hashes are held once per class.
    """
    eta = new_params(5.0, 3).eta
    table = np.power(eta, np.arange(400))
    libm = np.array([math.pow(eta, k) for k in range(400)])
    return "libm" if table.tobytes() == libm.tobytes() else "avx512"


@pytest.fixture(scope="session")
def power_rounding():
    return numpy_power_rounding()


@pytest.fixture(scope="session")
def p102():
    return new_params(10.0, 2)


@pytest.fixture(scope="session")
def p21():
    return new_params(2.0, 1)


@pytest.fixture(scope="session")
def p53():
    return new_params(5.0, 3)
