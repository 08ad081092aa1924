"""Execution backends for compiled explain plans.

An :class:`~repro.engine.plan.ExplainPlan` replays the traced pipeline
chain through a *backend*: the object that decides how the candidate
sweep is tiled over input rows and how the validity predictions inside
each tile are computed.  Two backends ship:

* :class:`NumpyBackend` (``"numpy"``, the default) — one float64 tile
  covering the whole batch.  Every array op runs at exactly the shapes
  of the historical stage-by-stage chain, which is what makes the
  compiled replay bit-identical to it (matmul-backed
  stages drift at float precision when their batch shape changes, so
  full bit-parity requires full-batch shapes).
* :class:`TiledFloat32Backend` (``"float32"``) — streams contiguous row
  tiles through the chain, so the full ``(n, m, d)`` projected/repaired
  sweep never materialises at once, and runs the validity GEMM on a
  float32 clone of the classifier (the serving fast mode).  Projection,
  causal repair, the feasibility mask and selection stay float64 inside
  each tile; hard outputs (predictions, validity, feasibility, the
  chosen candidates) are pinned identical to the staged reference by the
  parity suite, while raw logits carry the usual float32/BLAS-blocking
  caveat.

Backends are registered by name (:func:`register_backend` /
:func:`get_backend`), and scenarios opt into a non-default backend
through the per-scenario assignment registry (:func:`assign_backend` /
:func:`backend_for`) that ``run_scenario`` consults when compiling.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_BACKEND",
    "NumpyBackend",
    "PlanBackend",
    "TiledFloat32Backend",
    "assign_backend",
    "backend_for",
    "backend_names",
    "get_backend",
    "register_backend",
]

#: Name of the backend every plan (and scenario) uses unless told otherwise.
DEFAULT_BACKEND = "numpy"


class PlanBackend:
    """Base class of a plan execution backend.

    Subclasses override :meth:`tiles` (how the input rows are split into
    row slices the fused chain streams over) and :meth:`predict` (how a
    tile's flattened candidates are classified).  :meth:`prepare` runs
    once at plan-compile time and may return backend state (e.g. a
    dtype-converted model clone) that :meth:`predict` receives back on
    every call.
    """

    #: Registry name; subclasses must override.
    name = "backend"

    #: What the parity suite may pin against the staged reference:
    #: ``"bitwise"`` (full float equality) or ``"hard"`` (hard outputs
    #: only — predictions, flags, selection — with float tolerance on
    #: matmul-backed values).
    parity = "bitwise"

    def prepare(self, runner):
        """One-time compile hook; the return value is passed to :meth:`predict`."""
        return None

    def tiles(self, n_rows, n_candidates, n_features):
        """Row slices the plan streams the fused chain over, in order."""
        return [slice(0, n_rows)]

    def predict(self, state, blackbox, flat):
        """Hard 0/1 predictions for a tile's flattened ``(t * m, d)`` candidates."""
        return blackbox.predict(flat)

    def describe(self):
        """JSON-able identity dict, folded into the plan fingerprint."""
        return {"backend": self.name, "parity": self.parity}

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"


class NumpyBackend(PlanBackend):
    """Default whole-batch float64 backend: bit-identical to the staged reference."""

    name = "numpy"
    parity = "bitwise"


class TiledFloat32Backend(PlanBackend):
    """Contiguous float32-predict backend streaming fixed-size row tiles.

    Parameters
    ----------
    tile_rows:
        Input rows per tile.  Each tile's ``tile_rows * m`` candidates
        flow through projection, repair, the float32 validity GEMM and
        the feasibility mask before the next tile starts, bounding peak
        sweep memory at one tile instead of the full ``(n, m, d)``.
    """

    name = "float32"
    parity = "hard"

    def __init__(self, tile_rows=32):
        if int(tile_rows) < 1:
            raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
        self.tile_rows = int(tile_rows)

    def prepare(self, runner):
        """Clone the runner's classifier into float32 parameters.

        Returns ``None`` (falling back to the float64 predict) when the
        classifier does not expose the state-dict cloning surface —
        plans must run against any black box, not just the repo's own.
        """
        blackbox = runner.blackbox
        try:
            from ..models import BlackBoxClassifier
            from ..nn import dtype_scope

            with dtype_scope("float32"):
                clone = BlackBoxClassifier(
                    blackbox.n_features,
                    np.random.default_rng(0),
                    hidden=blackbox.hidden,
                )
            clone.load_state_dict(blackbox.state_dict())
            clone.eval()
        except (ImportError, AttributeError, TypeError):
            return None
        return clone

    def tiles(self, n_rows, n_candidates, n_features):
        return [
            slice(start, min(start + self.tile_rows, n_rows))
            for start in range(0, n_rows, self.tile_rows)
        ]

    def predict(self, state, blackbox, flat):
        if state is None:
            return blackbox.predict(flat)
        return state.predict(np.ascontiguousarray(flat, dtype=np.float32))

    def describe(self):
        info = super().describe()
        info["tile_rows"] = self.tile_rows
        return info


#: name -> zero-argument factory producing a backend instance.
_BACKENDS = {}


def register_backend(name, factory, overwrite=False):
    """Register a backend factory under ``name``.

    ``factory`` is called with no arguments each time
    :func:`get_backend` resolves the name, so every plan gets its own
    backend instance (backends may hold per-plan state).
    """
    if name in _BACKENDS and not overwrite:
        raise ValueError(f"backend {name!r} is already registered (overwrite=True replaces)")
    _BACKENDS[name] = factory


def backend_names():
    """Sorted names of every registered backend."""
    return tuple(sorted(_BACKENDS))


def get_backend(backend):
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, PlanBackend):
        return backend
    if backend not in _BACKENDS:
        known = ", ".join(backend_names())
        raise KeyError(f"unknown backend {backend!r}; registered: {known}")
    return _BACKENDS[backend]()


register_backend("numpy", NumpyBackend)
register_backend("float32", TiledFloat32Backend)


#: scenario name -> backend name (scenarios without an entry run "numpy").
_SCENARIO_BACKENDS = {}


def assign_backend(scenario_name, backend):
    """Pick the plan backend scenario ``scenario_name`` compiles onto.

    ``backend=None`` clears the assignment (back to the default).  The
    name is validated against the backend registry immediately, so a
    typo fails at assignment time rather than mid-sweep.
    """
    if backend is None:
        _SCENARIO_BACKENDS.pop(scenario_name, None)
        return
    if backend not in _BACKENDS:
        known = ", ".join(backend_names())
        raise KeyError(f"unknown backend {backend!r}; registered: {known}")
    _SCENARIO_BACKENDS[scenario_name] = backend


def backend_for(scenario_name):
    """Backend name assigned to a scenario (default when unassigned)."""
    return _SCENARIO_BACKENDS.get(scenario_name, DEFAULT_BACKEND)
