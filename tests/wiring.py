"""The paper's network, wired literally: the test oracle for its output.

``net_output_composed`` feeds the hidden units phi(wx) and phi(-wx) into
an output perceptron with unit weights and threshold one.  ``paclab.sontag``
labels through the closed form rho instead and never builds the hidden
layer; ``tests/test_sontag.py`` checks that the two agree.
"""

from __future__ import annotations

from paclab.sontag import phi


def net_output_composed(x, params):
    """Network output through the explicit wiring.

    Agrees with ``paclab.sontag.net_output`` because phi(t) + phi(-t) - 1
    collapses to the closed form rho.
    """
    t = params.w * x
    return int(phi(t, params.alpha) + phi(-t, params.alpha) - 1.0 >= 0.0)
