import math

import numpy as np
import pytest

from gwi import quadrature
from gwi.quadrature import (
    QuadratureError,
    euler_accelerated_sum,
    gauss_kronrod,
)


class TestGaussKronrod:
    def test_polynomial_exact(self):
        val, err = gauss_kronrod(lambda x: x**2, [0.0, 1.0], 1e-12)
        assert val.real == pytest.approx(1 / 3, abs=1e-14)

    def test_oscillatory(self):
        val, _ = gauss_kronrod(np.cos, [0.0, 10 * math.pi + 1.0], 1e-10)
        assert val.real == pytest.approx(math.sin(1.0), abs=1e-9)

    def test_complex_integrand(self):
        val, _ = gauss_kronrod(lambda x: np.exp(1j * x), [0.0, 1.0], 1e-12)
        assert complex(val) == pytest.approx(
            (np.exp(1j) - 1) / 1j, abs=1e-12)

    def test_initial_breakpoints(self):
        val, _ = gauss_kronrod(lambda x: np.abs(x - 0.3), [0.0, 0.3, 1.0],
                               1e-12)
        exact = 0.3**2 / 2 + 0.7**2 / 2
        assert val.real == pytest.approx(exact, abs=1e-13)

    def test_mild_singularity(self):
        val, _ = gauss_kronrod(lambda x: np.where(x > 0, np.sqrt(x), 0.0),
                               [0.0, 1.0], 1e-9)
        assert val.real == pytest.approx(2 / 3, abs=1e-8)

    def test_budget_exhaustion(self, monkeypatch):
        def spiky(x):
            return np.where(x > 0, x ** -0.999, 0.0)
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
        with pytest.raises(QuadratureError):
            gauss_kronrod(spiky, [0.0, 1.0], 1e-13)


class TestEulerAcceleration:
    def test_alternating_harmonic(self):
        terms = [(-1.0) ** k / (k + 1) for k in range(40)]
        val, move = euler_accelerated_sum(terms, 1e-12)
        assert val.real == pytest.approx(math.log(2), abs=1e-11)

    def test_slowly_converging_alternating(self):
        # sum (-1)^k / sqrt(k+1) = eta(1/2), mpmath oracle
        terms = [(-1.0) ** k / math.sqrt(k + 1) for k in range(60)]
        val, _ = euler_accelerated_sum(terms, 1e-10)
        assert val.real == pytest.approx(0.60489864342163037, abs=1e-9)

    def test_complex_geometric(self):
        z = -0.8 + 0.1j
        terms = z ** np.arange(50)
        val, _ = euler_accelerated_sum(terms, 1e-12)
        assert complex(val) == pytest.approx(1 / (1 - z), abs=1e-11)

    def test_failure_reported(self):
        with pytest.raises(QuadratureError):
            euler_accelerated_sum([1.0, 2.0, 4.0, 8.0], 1e-12)
