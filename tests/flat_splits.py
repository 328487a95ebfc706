"""A test helper shared by the constructor and statement-check tests."""

from symkt.constructors import DistributionSplit


def coordinate_split(chart, n1):
    """Axis-aligned splitting of a flat chart: the first ``n1`` coordinate
    directions against the rest, a parallel split."""

    def projector(x):
        n = chart.dim
        return [
            [1.0 if (i == j and i < n1) else 0.0 for j in range(n)] for i in range(n)
        ]

    return DistributionSplit(chart, n1, projector, name="coordinate")
