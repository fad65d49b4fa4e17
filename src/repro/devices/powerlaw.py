"""The shared alpha-power kernel of the compact device models.

Both compact models (:class:`~repro.devices.cnfet.CNFET` and
:class:`~repro.devices.mosfet.MOSFET`) and both transient integrators (the
scalar per-substep oracle and the vectorized batch engine in
:mod:`repro.circuit.simulator`) evaluate the same alpha-power-law
saturation current ``I_sat ∝ (overdrive / nominal_overdrive) ** alpha``.

The exponentiation must go through **one** kernel: NumPy's array ``power``
ufunc is allowed to dispatch to a SIMD implementation whose results differ
from CPython's ``float.__pow__`` (libm ``pow``) by one ulp on a few percent
of inputs.  That one-ulp difference is invisible electrically but breaks
the bit-identity contract between the batch transient engine and its oracle
(``docs/architecture.md``), so scalar callers route their exponentiation
through the same ufunc loop the batch engine uses.  ``np.power`` is a pure
element function — its result for a value does not depend on array length,
position, stride or shape — which is what makes the shared kernel well
defined.

>>> from repro.devices.powerlaw import alpha_power
>>> alpha_power(1.0, 1.2)
1.0
>>> abs(alpha_power(0.5, 1.2) - 0.5 ** 1.2) <= 2e-16
True
"""

from __future__ import annotations

import numpy as np


def alpha_power(base: float, exponent: float) -> float:
    """``base ** exponent`` evaluated by NumPy's array-power ufunc loop.

    ``base`` must be positive (the device models only exponentiate positive
    overdrive ratios); the result is a plain Python float.
    """
    return float(np.power(base, exponent))
