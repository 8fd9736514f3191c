"""SRAM array, column and word abstractions.

Paper Fig. 2 organises the 6T cells into an array of N words of four cells;
the in-memory multiplier of Section V stores one 4-bit operand per word and
discharges the four bit-line-bars with bit-weighted timing.  The classes
below model that organisation: a :class:`SramColumn` is one BL/BLB pair with
its attached cells, a :class:`SramWord` is a horizontal slice of cells
sharing a word line, and :class:`SramArray` wires the two views together and
provides the digital read/write operations plus access to the per-column
discharge behaviour.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.circuits.bitline import BitLine
from repro.circuits.conditions import OperatingConditions
from repro.circuits.mismatch import MismatchParameters, MismatchSample, MismatchSampler
from repro.circuits.sram_cell import CellState, SramCell
from repro.circuits.technology import TechnologyCard
from repro.circuits.transient import DischargeResult, TransientSolver


class SramColumn:
    """One column: a BL/BLB pair shared by every cell of the column.

    Parameters
    ----------
    technology:
        Technology card.
    cells:
        The cells attached to this column, ordered by row.
    index:
        Column index inside the array (bit position of the stored words).
    """

    def __init__(
        self,
        technology: TechnologyCard,
        cells: Sequence[SramCell],
        index: int = 0,
    ) -> None:
        if not cells:
            raise ValueError("a column needs at least one cell")
        self.technology = technology
        self.cells = list(cells)
        self.index = index
        self.bitline = BitLine.from_technology(
            technology, rows=len(cells), name=f"BL{index}"
        )
        self.bitline_bar = BitLine.from_technology(
            technology, rows=len(cells), name=f"BLB{index}"
        )
        self._solver = TransientSolver(technology, bitline=self.bitline_bar)

    @property
    def rows(self) -> int:
        """Number of cells in the column."""
        return len(self.cells)

    def cell(self, row: int) -> SramCell:
        """Return the cell at ``row``."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range (have {self.rows})")
        return self.cells[row]

    def simulate_discharge(
        self,
        row: int,
        wordline_voltage: float,
        duration: float,
        conditions: Optional[OperatingConditions] = None,
    ) -> DischargeResult:
        """Simulate the BLB discharge when activating one row of the column."""
        cell = self.cell(row)
        return self._solver.simulate_discharge(
            wordline_voltage=wordline_voltage,
            duration=duration,
            conditions=conditions,
            stored_bit=cell.stored_bit,
            mismatch=cell.mismatch,
        )


class SramWord:
    """One word: the cells of a single row across every column."""

    def __init__(self, cells: Sequence[SramCell], row: int = 0) -> None:
        if not cells:
            raise ValueError("a word needs at least one cell")
        self.cells = list(cells)
        self.row = row

    @property
    def width(self) -> int:
        """Word width in bits."""
        return len(self.cells)

    def write(self, value: int) -> None:
        """Store an unsigned integer, LSB in column 0."""
        if value < 0 or value >= (1 << self.width):
            raise ValueError(
                f"value {value} does not fit in a {self.width}-bit word"
            )
        for bit_index, cell in enumerate(self.cells):
            cell.write((value >> bit_index) & 1)

    def read(self) -> int:
        """Read back the stored unsigned integer."""
        value = 0
        for bit_index, cell in enumerate(self.cells):
            value |= cell.read() << bit_index
        return value

    def bits(self) -> List[int]:
        """Stored bits, LSB first."""
        return [cell.read() for cell in self.cells]


class SramArray:
    """A words-by-bits array of 6T cells with optional mismatch.

    Parameters
    ----------
    technology:
        Technology card.
    words:
        Number of rows (words).
    bits_per_word:
        Number of columns (bits per word); the paper's multiplier uses 4.
    mismatch_seed:
        Seed for the Pelgrom sampler.  ``None`` disables mismatch entirely
        (all cells perfectly matched), which the tests use for exact
        digital-behaviour checks.
    """

    def __init__(
        self,
        technology: TechnologyCard,
        words: int = 64,
        bits_per_word: int = 4,
        mismatch_seed: Optional[int] = None,
    ) -> None:
        if words <= 0 or bits_per_word <= 0:
            raise ValueError("array dimensions must be positive")
        self.technology = technology
        self.words = words
        self.bits_per_word = bits_per_word

        if mismatch_seed is None:
            samples = [
                [MismatchSample.nominal() for _ in range(bits_per_word)]
                for _ in range(words)
            ]
        else:
            sampler = MismatchSampler(
                MismatchParameters.from_technology(technology), seed=mismatch_seed
            )
            samples = [
                [sampler.sample() for _ in range(bits_per_word)] for _ in range(words)
            ]

        self._cells: List[List[SramCell]] = [
            [
                SramCell(technology, CellState.ZERO, samples[row][col])
                for col in range(bits_per_word)
            ]
            for row in range(words)
        ]
        self._columns = [
            SramColumn(
                technology,
                [self._cells[row][col] for row in range(words)],
                index=col,
            )
            for col in range(bits_per_word)
        ]

    # ------------------------------------------------------------------
    # Structure access
    # ------------------------------------------------------------------
    def cell(self, row: int, column: int) -> SramCell:
        """Return the cell at ``(row, column)``."""
        if not 0 <= row < self.words:
            raise IndexError(f"row {row} out of range (have {self.words})")
        if not 0 <= column < self.bits_per_word:
            raise IndexError(
                f"column {column} out of range (have {self.bits_per_word})"
            )
        return self._cells[row][column]

    def word(self, row: int) -> SramWord:
        """Return the word (row) view at ``row``."""
        if not 0 <= row < self.words:
            raise IndexError(f"row {row} out of range (have {self.words})")
        return SramWord(self._cells[row], row=row)

    def column(self, index: int) -> SramColumn:
        """Return the column view at bit position ``index``."""
        if not 0 <= index < self.bits_per_word:
            raise IndexError(
                f"column {index} out of range (have {self.bits_per_word})"
            )
        return self._columns[index]

    # ------------------------------------------------------------------
    # Digital operations
    # ------------------------------------------------------------------
    def write_word(self, row: int, value: int) -> None:
        """Write an unsigned integer into row ``row``."""
        self.word(row).write(value)

    def read_word(self, row: int) -> int:
        """Read the unsigned integer stored in row ``row``."""
        return self.word(row).read()

    def write_all(self, values: Sequence[int]) -> None:
        """Write one value per row; ``values`` must cover every row."""
        if len(values) != self.words:
            raise ValueError(
                f"expected {self.words} values, got {len(values)}"
            )
        for row, value in enumerate(values):
            self.write_word(row, value)

    def dump(self) -> np.ndarray:
        """Return the stored contents as an integer array (one entry per row)."""
        return np.array([self.read_word(row) for row in range(self.words)], dtype=int)
