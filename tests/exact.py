"""Atomic masses in exact rationals: the test oracle for ``mass``.

``exact_mass`` reads each atom's mass as the decimal literal it prints as,
divides by their sum, adds the kept atoms' shares as Fractions and rounds
the total once, the one rounding ``AtomicMeasure.mass`` makes.
``tests/test_measures.py``, ``test_concepts.py``, ``test_learner.py`` and
``test_acceptance.py`` compare atomic expectations and distances with it
by ``==``.
"""

from __future__ import annotations

from fractions import Fraction


def exact_mass(measure, keep):
    """The mass of the atoms whose location ``keep`` holds, rounded once."""
    atoms = measure.atoms
    masses = [Fraction(str(a.mass)) for a in atoms]
    kept = sum((m for a, m in zip(atoms, masses) if keep(a.location)),
               Fraction(0))
    return float(kept / sum(masses))
