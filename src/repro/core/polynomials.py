"""Polynomial building blocks of the OPTIMA behavioural models.

The paper expresses every behavioural model (Eq. 3-8) in terms of low-degree
polynomials ``p_n(X)`` combined either as products (e.g.
``p4(V_od) * p2(t)``) or as additive correction terms.  Three fitting
primitives cover all of them:

* :class:`Polynomial1D` — a plain 1-D polynomial (one factor of a product
  model).
* :class:`SeparableProductModel` — a product of per-variable polynomials
  ``p_{n_1}(x_1) * p_{n_2}(x_2) * ...`` fitted with alternating least
  squares (each factor is linear in its own coefficients when the others are
  frozen).
* :class:`TensorPolynomialModel` — a full tensor-product polynomial with all
  cross terms, fitted directly; used for ablations against the paper's
  rank-1 separable form.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


def vandermonde(values: ArrayLike, degree: int) -> np.ndarray:
    """Column-wise Vandermonde matrix ``[1, x, x^2, ..., x^degree]``."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return np.vander(values, degree + 1, increasing=True)


@dataclasses.dataclass
class Polynomial1D:
    """Polynomial ``p(x) = c_0 + c_1 x + ... + c_n x^n`` (ascending coefficients).

    This is the ``p_n(X)`` notation of the paper: a degree-``n`` polynomial
    has ``n + 1`` coefficients.
    """

    coefficients: np.ndarray
    variable: str = "x"

    def __post_init__(self) -> None:
        self.coefficients = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if self.coefficients.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if self.coefficients.size == 0:
            raise ValueError("a polynomial needs at least one coefficient")

    @property
    def degree(self) -> int:
        """Polynomial degree ``n``."""
        return int(self.coefficients.size - 1)

    def __call__(self, values: ArrayLike) -> np.ndarray:
        """Evaluate the polynomial (broadcasts over array inputs)."""
        values = np.asarray(values, dtype=float)
        return np.polynomial.polynomial.polyval(values, self.coefficients)

    def derivative(self) -> "Polynomial1D":
        """Return the first derivative as a new polynomial."""
        if self.degree == 0:
            return Polynomial1D(np.zeros(1), variable=self.variable)
        deriv = np.polynomial.polynomial.polyder(self.coefficients)
        return Polynomial1D(deriv, variable=self.variable)

    def scaled(self, factor: float) -> "Polynomial1D":
        """Return ``factor * p(x)`` as a new polynomial."""
        return Polynomial1D(self.coefficients * factor, variable=self.variable)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "variable": self.variable,
            "coefficients": self.coefficients.tolist(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Polynomial1D":
        """Inverse of :meth:`to_dict`."""
        return cls(
            np.asarray(data["coefficients"], dtype=float),
            variable=str(data.get("variable", "x")),
        )


class SeparableProductModel:
    """Product of per-variable polynomials fitted by alternating least squares.

    ``f(x_1, ..., x_k) = p_{n_1}(x_1) * p_{n_2}(x_2) * ... * p_{n_k}(x_k)``

    This is the exact functional form the paper uses for Eq. 3 (``p4 * p2``),
    Eq. 6 (``p3 * p3``), Eq. 7 (``p2 * p1``) and Eq. 8 (``p1 * p3 * p1``).
    The product form has a scale ambiguity (multiplying one factor by ``a``
    and another by ``1/a`` leaves the model unchanged); after fitting, all
    factors except the first are normalised to unit maximum absolute
    coefficient, which makes serialised models comparable across runs.

    Parameters
    ----------
    degrees:
        Polynomial degree for each input variable, in order.
    variables:
        Optional variable names used in reports and serialisation.
    """

    def __init__(
        self,
        degrees: Sequence[int],
        variables: Sequence[str] = (),
    ) -> None:
        if not degrees:
            raise ValueError("at least one factor is required")
        if any(degree < 0 for degree in degrees):
            raise ValueError("degrees must be non-negative")
        self.degrees = [int(d) for d in degrees]
        if variables and len(variables) != len(degrees):
            raise ValueError("variables must match the number of factors")
        self.variables = list(variables) or [f"x{i}" for i in range(len(degrees))]
        self.factors: List[Polynomial1D] = [
            Polynomial1D(np.ones(degree + 1), variable=name)
            for degree, name in zip(self.degrees, self.variables)
        ]
        self.fitted = False

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, *inputs: ArrayLike) -> np.ndarray:
        """Evaluate the product model; inputs broadcast against each other."""
        if len(inputs) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} inputs, got {len(inputs)}"
            )
        result: np.ndarray = np.asarray(1.0)
        for factor, values in zip(self.factors, inputs):
            result = result * factor(values)
        return result

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        inputs: Sequence[ArrayLike],
        targets: ArrayLike,
        iterations: int = 250,
        tolerance: float = 1e-14,
    ) -> "SeparableProductModel":
        """Alternating-least-squares fit.

        Parameters
        ----------
        inputs:
            One flat array per variable, all of the same length.
        targets:
            Observed values of the product.
        iterations:
            Maximum number of ALS sweeps.
        tolerance:
            Relative change of the residual sum of squares below which the
            iteration stops early.
        """
        if len(inputs) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} input arrays, got {len(inputs)}"
            )
        columns = [np.asarray(x, dtype=float).ravel() for x in inputs]
        targets = np.asarray(targets, dtype=float).ravel()
        length = targets.size
        if any(column.size != length for column in columns):
            raise ValueError("all inputs must have the same length as targets")
        max_coeffs = max(self.degrees) + 1
        if length <= max_coeffs:
            raise ValueError("not enough samples to fit the requested degrees")

        # Sensible initialisation: every factor starts as the identity-like
        # ramp 1 + x which avoids the all-zero fixed point of ALS.
        for index, factor in enumerate(self.factors):
            coeffs = np.zeros(self.degrees[index] + 1)
            coeffs[0] = 1.0
            if coeffs.size > 1:
                coeffs[1] = 1.0
            factor.coefficients = coeffs

        vandermondes = [
            vandermonde(column, degree)
            for column, degree in zip(columns, self.degrees)
        ]

        previous_rss = np.inf
        for _ in range(iterations):
            for index in range(len(self.factors)):
                others = np.ones(length)
                for other_index, factor in enumerate(self.factors):
                    if other_index == index:
                        continue
                    others = others * factor(columns[other_index])
                design = vandermondes[index] * others[:, np.newaxis]
                coeffs, *_ = np.linalg.lstsq(design, targets, rcond=None)
                self.factors[index].coefficients = coeffs
            residual = targets - self(*columns)
            rss = float(np.dot(residual, residual))
            if np.isfinite(previous_rss) and previous_rss - rss <= tolerance * max(
                previous_rss, 1e-30
            ):
                break
            previous_rss = rss

        self._normalise()
        self.fitted = True
        return self

    def _normalise(self) -> None:
        """Push the overall scale into the first factor."""
        scale = 1.0
        for factor in self.factors[1:]:
            peak = float(np.max(np.abs(factor.coefficients)))
            if peak > 0.0:
                factor.coefficients = factor.coefficients / peak
                scale *= peak
        self.factors[0].coefficients = self.factors[0].coefficients * scale

    def rms_residual(self, inputs: Sequence[ArrayLike], targets: ArrayLike) -> float:
        """Root-mean-square residual of the model on a dataset."""
        targets = np.asarray(targets, dtype=float).ravel()
        prediction = self(*[np.asarray(x, dtype=float).ravel() for x in inputs])
        return float(np.sqrt(np.mean((prediction - targets) ** 2)))

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "degrees": list(self.degrees),
            "variables": list(self.variables),
            "factors": [factor.to_dict() for factor in self.factors],
            "fitted": self.fitted,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SeparableProductModel":
        """Inverse of :meth:`to_dict`."""
        model = cls(degrees=list(data["degrees"]), variables=list(data["variables"]))
        model.factors = [Polynomial1D.from_dict(d) for d in data["factors"]]
        model.fitted = bool(data.get("fitted", False))
        return model


class TensorPolynomialModel:
    """Bivariate polynomial with all cross terms, fitted by linear least squares.

    ``f(x, y) = sum_{i <= deg_x, j <= deg_y} c_{ij} x^i y^j``

    The separable (rank-1) form the paper uses is a constrained special case
    of this model; the ablation benchmark compares the two to quantify what
    the constraint costs in accuracy and what it saves in parameters.
    """

    def __init__(self, degree_x: int, degree_y: int, variables: Sequence[str] = ("x", "y")) -> None:
        if degree_x < 0 or degree_y < 0:
            raise ValueError("degrees must be non-negative")
        self.degree_x = int(degree_x)
        self.degree_y = int(degree_y)
        self.variables = tuple(variables)
        self.coefficients = np.zeros((degree_x + 1, degree_y + 1))
        self.fitted = False

    @property
    def parameter_count(self) -> int:
        """Number of free coefficients."""
        return (self.degree_x + 1) * (self.degree_y + 1)

    def _design(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        vx = vandermonde(x, self.degree_x)
        vy = vandermonde(y, self.degree_y)
        return (vx[:, :, np.newaxis] * vy[:, np.newaxis, :]).reshape(x.size, -1)

    def fit(self, x: ArrayLike, y: ArrayLike, targets: ArrayLike) -> "TensorPolynomialModel":
        """Direct least-squares fit of all cross-term coefficients."""
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        targets = np.asarray(targets, dtype=float).ravel()
        if not (x.size == y.size == targets.size):
            raise ValueError("x, y and targets must have the same length")
        if x.size <= self.parameter_count:
            raise ValueError("not enough samples for the requested degrees")
        design = self._design(x, y)
        coefficients, *_ = np.linalg.lstsq(design, targets, rcond=None)
        self.coefficients = coefficients.reshape(self.degree_x + 1, self.degree_y + 1)
        self.fitted = True
        return self

    def __call__(self, x: ArrayLike, y: ArrayLike) -> np.ndarray:
        """Evaluate the model; ``x`` and ``y`` broadcast against each other."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.polynomial.polynomial.polyval2d(x, y, self.coefficients)

    def rms_residual(self, x: ArrayLike, y: ArrayLike, targets: ArrayLike) -> float:
        """Root-mean-square residual of the model on a dataset."""
        targets = np.asarray(targets, dtype=float).ravel()
        prediction = self(np.asarray(x, dtype=float).ravel(), np.asarray(y, dtype=float).ravel())
        return float(np.sqrt(np.mean((prediction - targets) ** 2)))

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "degree_x": self.degree_x,
            "degree_y": self.degree_y,
            "variables": list(self.variables),
            "coefficients": self.coefficients.tolist(),
            "fitted": self.fitted,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TensorPolynomialModel":
        """Inverse of :meth:`to_dict`."""
        model = cls(
            degree_x=int(data["degree_x"]),
            degree_y=int(data["degree_y"]),
            variables=tuple(data.get("variables", ("x", "y"))),
        )
        model.coefficients = np.asarray(data["coefficients"], dtype=float)
        model.fitted = bool(data.get("fitted", False))
        return model
