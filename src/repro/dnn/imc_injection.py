"""Multiplier backends: how INT4 products are actually computed.

The quantised layers of :mod:`repro.dnn.quantization` reduce every
convolution / dense layer to sums of INT4 products between unsigned
activation codes (0..15) and signed weight codes (-8..7).  *How* each product
is computed is delegated to a backend:

* :class:`ExactBackend` — ideal digital INT4 multiplication (the paper's
  "Baseline INT4" column).
* :class:`LutBackend` — the in-SRAM multiplier, represented by the
  :class:`~repro.multiplier.lut.ProductLookupTable` of a design corner.
  Signs are applied digitally (sign-magnitude execution); optionally each
  product is perturbed with the corner's mismatch sigma.

Both backends expose one operation, ``matmul(activations, weights)``, which
computes ``sum_k product(a[m, k], w[k, n])``.  The LUT backend splits the
product table by activation code instead of by weight value.  Sign-magnitude
execution makes every product ``sign(w) * P[a, |w|]``, so one gather
``P[a]`` fetches, for each activation, its code's products with the eight
weight magnitudes, and a single dense matrix product against the signed
one-hot encoding of the weight magnitudes adds them up.  This is what keeps
the Table II/III experiments tractable.

The gather-and-multiply form changes the order of the float32 additions,
not their result: every corner table's ``mean`` (and
:meth:`ProductLookupTable.exact`) holds integer ADC codes, the one-hot
factors are 0 or +-1, and float32 sums of integers below ``2**24`` are exact
in any order.  An exact table therefore reproduces digital INT4 bit for bit:

>>> import numpy as np
>>> rng = np.random.default_rng(0)
>>> activations = rng.integers(0, 16, size=(6, 9))
>>> weights = rng.integers(-8, 8, size=(9, 4))
>>> lut = LutBackend(ProductLookupTable.exact())
>>> exact = ExactBackend().matmul(activations, weights)
>>> bool(np.array_equal(lut.matmul(activations, weights), exact))
True
>>> bool(np.array_equal(lut.matmul(activations, weights, activation_zero_point=3), exact))
True
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from repro.multiplier.lut import ProductLookupTable

#: Magnitudes of the non-zero INT4 weight codes (-8..7); weight 0 stores an
#: all-zero word, so it never discharges and contributes nothing.
WEIGHT_MAGNITUDES = np.arange(1, 9)


class MultiplierBackend(Protocol):
    """Protocol every multiplier backend implements."""

    name: str

    def matmul(
        self,
        activation_codes: np.ndarray,
        weight_codes: np.ndarray,
        activation_zero_point: int = 0,
    ) -> np.ndarray:
        """Accumulated products ``sum_k product(a[m, k], w[k, n])``.

        Parameters
        ----------
        activation_codes:
            Unsigned activation codes, shape ``(m, k)``, values 0..15.
        weight_codes:
            Signed weight codes, shape ``(k, n)``, values -8..7.
        activation_zero_point:
            Activation code whose dequantised value is exactly zero.  An
            accelerator skips those analogue operations (zero-skipping), so
            their contribution is the exact product rather than an analogue
            approximation of it.
        """
        ...  # pragma: no cover - protocol definition


class ExactBackend:
    """Ideal digital INT4 multiply-accumulate."""

    name = "int4"

    def matmul(
        self,
        activation_codes: np.ndarray,
        weight_codes: np.ndarray,
        activation_zero_point: int = 0,
    ) -> np.ndarray:
        """Exact integer products accumulated in float32."""
        del activation_zero_point  # exact products need no special casing
        activations = np.asarray(activation_codes, dtype=np.float32)
        weights = np.asarray(weight_codes, dtype=np.float32)
        return activations @ weights

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "ExactBackend()"


class LutBackend:
    """In-SRAM multiplier backend driven by a product lookup table.

    Parameters
    ----------
    table:
        Product lookup table of one multiplier corner (mean result and
        per-product sigma, both in product-code units).
    stochastic:
        When true, every accumulated output receives Gaussian noise whose
        variance is the sum of the per-product mismatch variances — the
        exact distribution of summing independently perturbed products.
    rng:
        Random generator used for the stochastic mode.
    name:
        Backend name in reports; defaults to the table's corner name.
    """

    def __init__(
        self,
        table: ProductLookupTable,
        stochastic: bool = False,
        rng: Optional[np.random.Generator] = None,
        name: Optional[str] = None,
    ) -> None:
        self.table = table
        self.stochastic = stochastic
        self.rng = rng or np.random.default_rng(0)
        self.name = name or table.name
        # (product, variance) tables per activation zero point; every zero
        # point outside the code range shares the key -1.
        self._code_tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def code_tables(self, activation_zero_point: int) -> Tuple[np.ndarray, np.ndarray]:
        """Float32 tables indexed by (activation code, weight magnitude - 1).

        ``product[a, j - 1]`` is the mean result of multiplying activation
        code ``a`` by weight magnitude ``j``; ``variance`` holds the matching
        mismatch variance.  Zero-skipping is already applied: the zero-point
        row holds the exact products ``zero_point * j`` with no variance.
        """
        max_code = self.table.max_operand
        key = activation_zero_point if 0 <= activation_zero_point <= max_code else -1
        tables = self._code_tables.get(key)
        if tables is None:
            columns = np.minimum(WEIGHT_MAGNITUDES, max_code)
            product = self.table.mean[:, columns]
            variance = self.table.sigma[:, columns] ** 2
            if key >= 0:
                product[key] = float(key) * WEIGHT_MAGNITUDES
                variance[key] = 0.0
            tables = (product.astype(np.float32), variance.astype(np.float32))
            self._code_tables[key] = tables
        return tables

    def matmul(
        self,
        activation_codes: np.ndarray,
        weight_codes: np.ndarray,
        activation_zero_point: int = 0,
    ) -> np.ndarray:
        """Accumulate in-SRAM products: one gather by activation code, one GEMM.

        ``gathered[m, k, j - 1] = product[a[m, k], j - 1]`` looks up each
        activation's products with the weight magnitudes ``j``, and
        ``selector[k, j - 1, n] = sign(w[k, n]) * (|w[k, n]| == j)`` picks
        the magnitude (with its sign) of each weight, so the result is
        ``gathered.reshape(m, 8k) @ selector.reshape(8k, n)``.  Weight 0
        selects nothing: no discharge, no mismatch.  Because the tables hold
        integers, the float32 result does not depend on the summation order
        (see the module docstring).

        Activations equal to ``activation_zero_point`` represent an exact
        real value of zero; the accelerator zero-skips them, so their
        contribution is the exact product ``zero_point * w`` (which the
        quantised layer's zero-point correction then cancels) instead of an
        analogue result.
        """
        activations = np.asarray(activation_codes)
        weights = np.asarray(weight_codes)
        if activations.ndim != 2 or weights.ndim != 2:
            raise ValueError("matmul expects 2-D code matrices")
        if activations.shape[1] != weights.shape[0]:
            raise ValueError(
                f"inner dimensions do not match: {activations.shape} vs {weights.shape}"
            )
        if activations.min() < 0 or activations.max() > self.table.max_operand:
            raise ValueError("activation codes out of the 4-bit unsigned range")
        if weights.min() < -8 or weights.max() > 7:
            raise ValueError("weight codes out of the 4-bit signed range")

        product_table, variance_table = self.code_tables(activation_zero_point)
        rows, inner = activations.shape
        codes = activations.astype(np.intp, copy=False)
        weights = weights.astype(np.intp)
        selector = (
            (np.abs(weights)[:, np.newaxis, :] == WEIGHT_MAGNITUDES[:, np.newaxis])
            * np.sign(weights)[:, np.newaxis, :]
        ).astype(np.float32).reshape(inner * WEIGHT_MAGNITUDES.size, -1)
        gathered = np.take(product_table, codes, axis=0).reshape(rows, -1)
        accumulated = gathered @ selector
        if self.stochastic:
            gathered = np.take(variance_table, codes, axis=0).reshape(rows, -1)
            variance = gathered @ np.abs(selector)
            noise = self.rng.normal(0.0, 1.0, size=accumulated.shape).astype(np.float32)
            accumulated = accumulated + noise * np.sqrt(np.maximum(variance, 0.0))
        return accumulated

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LutBackend(name={self.name!r}, stochastic={self.stochastic})"


def backends_for_corners(
    tables: Dict[str, ProductLookupTable],
    stochastic: bool = False,
    seed: int = 0,
) -> Dict[str, "LutBackend"]:
    """Build one LUT backend per named corner table."""
    return {
        name: LutBackend(
            table,
            stochastic=stochastic,
            rng=np.random.default_rng(seed + index),
            name=name,
        )
        for index, (name, table) in enumerate(tables.items())
    }
