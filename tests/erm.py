"""The paper's learner, run literally: the test oracle for the estimator.

``erm_learn`` takes the per-atom majority vote of one labeled sample; the
estimator in ``paclab.learner`` relies on that vote being an ERM
hypothesis and never builds it.  ``tests/test_learner.py`` checks the
estimator's hitting times against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from paclab.concepts import AtomLabeling
from paclab.measures import AtomicMeasure


@dataclass(frozen=True)
class LabeledSample:
    """Points paired with the target concept's labels at those points."""

    points: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.points) != len(self.labels):
            raise ValueError("points and labels must have equal length")


def erm_learn(sample, universe):
    """Per-atom majority vote over the sample; ties and unseen atoms get 0.

    Every sample point must be an atom location of the universe; anything
    off the grid is a hard error.  On a label-consistent sample the output
    has empirical risk 0.
    """
    if not isinstance(universe, AtomicMeasure):
        raise TypeError("the learner needs an atomic universe")
    index = {x: i for i, x in enumerate(universe.locations.tolist())}
    ones = [0] * len(universe)
    seen = [0] * len(universe)
    for point, label in zip(sample.points, sample.labels):
        i = index.get(float(point))
        if i is None:
            raise ValueError(f"sample point {point!r} is not an atom location")
        seen[i] += 1
        ones[i] += int(label)
    bits = tuple(1 if 2 * o > s else 0 for o, s in zip(ones, seen))
    return AtomLabeling.for_measure(universe, bits, default_bit=0)


def empirical_risk(hypothesis, sample):
    """Fraction of sample points the hypothesis mislabels."""
    if not sample.points:
        return 0.0
    wrong = sum(1 for p, lab in zip(sample.points, sample.labels)
                if int(bool(hypothesis.contains(p))) != int(lab))
    return wrong / len(sample.points)
