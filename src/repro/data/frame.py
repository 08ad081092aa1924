"""A minimal column-oriented table, the pandas stand-in for this repo.

The evaluation environment has no pandas, so :class:`TabularFrame` provides
the small slice of DataFrame behaviour the pipeline needs: named columns
backed by numpy arrays, row subsetting and access, and a missing-cell
mask.

Conventions
-----------
* Continuous and binary columns are ``float64`` arrays; missing = ``NaN``.
* Categorical columns are ``object`` arrays of strings; missing = ``None``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TabularFrame"]


class TabularFrame:
    """Immutable-ish column store with uniform row count.

    Parameters
    ----------
    columns:
        Mapping of column name to 1-D array-like.  All columns must share
        the same length.
    """

    def __init__(self, columns):
        if not columns:
            raise ValueError("a frame needs at least one column")
        self._columns = {}
        length = None
        for name, values in columns.items():
            array = np.asarray(values)
            if array.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D, got shape {array.shape}")
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise ValueError(
                    f"column {name!r} has {len(array)} rows, expected {length}")
            self._columns[name] = array
        self._length = length

    # -- basic introspection ----------------------------------------------
    @property
    def column_names(self):
        """Column names in insertion order."""
        return tuple(self._columns)

    @property
    def n_rows(self):
        """Number of rows."""
        return self._length

    @property
    def n_columns(self):
        """Number of columns."""
        return len(self._columns)

    def __len__(self):
        return self._length

    def __contains__(self, name):
        return name in self._columns

    def __getitem__(self, name):
        """Return the array backing column ``name``."""
        if name not in self._columns:
            raise KeyError(f"no column named {name!r}")
        return self._columns[name]

    def __repr__(self):
        return f"TabularFrame({self.n_rows} rows x {self.n_columns} columns)"

    # -- construction helpers ----------------------------------------------
    def take(self, indices):
        """Return a new frame with the rows at ``indices`` (any order)."""
        indices = np.asarray(indices)
        return TabularFrame({name: col[indices] for name, col in self._columns.items()})

    def head(self, count=5):
        """Return the first ``count`` rows."""
        return self.take(np.arange(min(count, self._length)))

    # -- missing values ----------------------------------------------------
    def missing_mask(self):
        """Boolean array marking rows with at least one missing cell."""
        mask = np.zeros(self._length, dtype=bool)
        for column in self._columns.values():
            if column.dtype == object:
                mask |= np.array([value is None for value in column])
            else:
                mask |= np.isnan(column.astype(np.float64))
        return mask

    # -- row access ----------------------------------------------------------
    def row(self, index):
        """Return row ``index`` as an ordered dict of scalars."""
        if not -self._length <= index < self._length:
            raise IndexError(f"row {index} out of range for {self._length} rows")
        return {name: column[index] for name, column in self._columns.items()}
