"""Unit tests for the polynomial model building blocks."""

import numpy as np
import pytest

from repro.core.polynomials import (
    Polynomial1D,
    SeparableProductModel,
    TensorPolynomialModel,
    vandermonde,
)


class TestVandermonde:
    def test_columns(self):
        matrix = vandermonde([1.0, 2.0], 2)
        assert matrix.shape == (2, 3)
        assert np.allclose(matrix[1], [1.0, 2.0, 4.0])

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            vandermonde([1.0], -1)


class TestPolynomial1D:
    def test_evaluation(self):
        poly = Polynomial1D([1.0, 2.0, 3.0])
        assert float(poly(2.0)) == pytest.approx(1.0 + 4.0 + 12.0)

    def test_degree(self):
        assert Polynomial1D([1.0, 0.0, 5.0]).degree == 2

    def test_fit_recovers_coefficients(self):
        x = np.linspace(-1.0, 1.0, 40)
        y = 0.5 - 1.5 * x + 2.0 * x**2
        fitted = SeparableProductModel(degrees=(2,)).fit([x], y).factors[0]
        assert np.allclose(fitted.coefficients, [0.5, -1.5, 2.0], atol=1e-10)

    def test_fit_insufficient_samples_rejected(self):
        with pytest.raises(ValueError):
            SeparableProductModel(degrees=(3,)).fit([[1.0, 2.0]], [1.0, 2.0])

    def test_derivative(self):
        poly = Polynomial1D([1.0, 2.0, 3.0])
        derivative = poly.derivative()
        assert np.allclose(derivative.coefficients, [2.0, 6.0])
        assert Polynomial1D([4.0]).derivative().coefficients[0] == 0.0

    def test_scaled(self):
        poly = Polynomial1D([1.0, 2.0]).scaled(3.0)
        assert np.allclose(poly.coefficients, [3.0, 6.0])

    def test_serialisation_roundtrip(self):
        poly = Polynomial1D([0.1, -0.2, 0.3], variable="vdd")
        clone = Polynomial1D.from_dict(poly.to_dict())
        assert clone.variable == "vdd"
        assert np.allclose(clone.coefficients, poly.coefficients)

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            Polynomial1D(np.array([]))


class TestSeparableProductModel:
    def test_exact_recovery_of_rank_one_product(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, 300)
        y = rng.uniform(0.0, 2.0, 300)
        target = (1.0 + 2.0 * x + 0.5 * x**2) * (0.3 + 0.7 * y)
        model = SeparableProductModel(degrees=(2, 1), variables=("x", "y"))
        model.fit([x, y], target)
        assert model.rms_residual([x, y], target) < 1e-8
        assert model.fitted

    def test_three_factor_fit(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 1.5, 400)
        y = rng.uniform(-1.0, 1.0, 400)
        z = rng.uniform(0.0, 1.0, 400)
        target = (2.0 + x) * (1.0 - 0.5 * y + 0.2 * y**2) * (0.5 + z)
        model = SeparableProductModel(degrees=(1, 2, 1))
        model.fit([x, y, z], target)
        assert model.rms_residual([x, y, z], target) < 1e-6

    def test_wrong_input_count_rejected(self):
        model = SeparableProductModel(degrees=(1, 1))
        with pytest.raises(ValueError):
            model([1.0])
        with pytest.raises(ValueError):
            model.fit([[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0])

    def test_serialisation_roundtrip(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 100)
        y = rng.uniform(-1, 1, 100)
        target = (1 + x) * (2 + y)
        model = SeparableProductModel(degrees=(1, 1), variables=("a", "b"))
        model.fit([x, y], target)
        clone = SeparableProductModel.from_dict(model.to_dict())
        assert np.allclose(clone(x, y), model(x, y))

    def test_invalid_degrees_rejected(self):
        with pytest.raises(ValueError):
            SeparableProductModel(degrees=())
        with pytest.raises(ValueError):
            SeparableProductModel(degrees=(1, -2))


class TestTensorPolynomialModel:
    def test_fits_cross_terms_that_rank_one_cannot(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 400)
        y = rng.uniform(-1, 1, 400)
        # x*y + x^2 is rank-2; the full tensor model must fit it exactly.
        target = x * y + x**2
        tensor = TensorPolynomialModel(2, 2)
        tensor.fit(x, y, target)
        assert tensor.rms_residual(x, y, target) < 1e-10
        separable = SeparableProductModel(degrees=(2, 2))
        separable.fit([x, y], target)
        assert separable.rms_residual([x, y], target) > 1e-3

    def test_parameter_count(self):
        assert TensorPolynomialModel(4, 2).parameter_count == 15

    def test_serialisation_roundtrip(self):
        rng = np.random.default_rng(4)
        x, y = rng.uniform(-1, 1, (2, 120))
        tensor = TensorPolynomialModel(1, 1)
        tensor.fit(x, y, 1 + x + 2 * y + 3 * x * y)
        clone = TensorPolynomialModel.from_dict(tensor.to_dict())
        assert np.allclose(clone(x, y), tensor(x, y))

    def test_dimension_mismatch_rejected(self):
        tensor = TensorPolynomialModel(1, 1)
        with pytest.raises(ValueError):
            tensor.fit([1.0, 2.0], [1.0], [1.0, 2.0])
