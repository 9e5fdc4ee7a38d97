"""Desk-scale laboratory for mean-field limits of strongly confined Bose gases.

The package couples three layers:

* exact N-particle Schrodinger dynamics on tensor grids (``manybody``),
* the effective one-body Hartree / NLS dynamics on the free directions
  (``onebody``),
* the projection-counting machinery that measures condensation and the
  closed-form convergence bounds built on it (``counting``, ``bounds``),

over one grid and kinetic-operator layer (``grids``): every function of
-Delta_x - eps^-2 Delta_y, in either dynamics, acts through its
position-space matrices on merged axes, and both dynamics step through one
Strang schedule.  A batch experiment harness (``harness``,
``cli``) runs both side by side.
"""

from . import bounds, cli, counting, grids, harness, manybody, onebody

__all__ = ["grids", "onebody", "manybody", "counting", "bounds", "harness", "cli"]
__version__ = "0.1.0"
