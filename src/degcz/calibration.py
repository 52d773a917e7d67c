"""Empirically calibrated constants for the smallness-condition checks.

The qualitative statements guarantee existence of these constants but give no
values.  The numbers below were chosen by hand from scans of the analytic
family |x|^eps over the unit disk; no calibration routine ships with the
package.  They are deliberately conservative: on eps in [0.01, 0.5] and
s in {1, 2, 4}, the factor-2 power-mean bounds held for every
s |log w|_BMO up to 0.97, four times ``gamma_small``.  The ``power(eps)``
loop over ``small_scalar_checks`` in ``tests/test_seminorms.py``
(``test_calibrated_gamma_scan``) exercises ``gamma_small``.  They are
configuration data, not asserted mathematics, and every report that uses
them echoes them.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

__all__ = ["CalibratedConstants", "CALIBRATED"]


@dataclass(frozen=True)
class CalibratedConstants:
    # largest smallness threshold gamma (|log w|_BMO <= gamma / s) found to
    # keep the s-mean within a factor 2 of the logarithmic mean on the
    # |x|^eps family; universality is not claimed
    gamma_small: float = 0.25
    # empirical multiplicative constant for the q-mean oscillation bound
    # (|M - M_B| / |M_B| in L^q vs q |log M|_BMO), calibrated on |x|^eps
    c3_oscillation: float = 2.0
    # empirical constants c_delta for the change-of-shift inequality at
    # delta = 0.25, per exponent p (keys stringified for JSON round trips)
    change_of_shift: tuple[tuple[str, float], ...] = (
        ("1.5", 4.0),
        ("2", 4.0),
        ("3", 16.0),
        ("4.5", 120.0),
    )

    def as_dict(self) -> dict:
        d = asdict(self)
        d["change_of_shift"] = dict(self.change_of_shift)
        return d


CALIBRATED = CalibratedConstants()
