"""Reference data for the output checks.

The root lists are copied from tests/conftest.py: the default beam's exact and
truncated roots on mu in (0.1, 38.5), frozen from two independent
high-precision solvers.  golden.json (written by record_golden.py) holds the
exit codes and artifact digests recorded from the package itself.
"""

import math

EXACT_ROOTS_REF = [
    2.5518452, 4.5727357, 5.6182439, 6.6081738, 8.198128, 9.7214698, 11.494498,
    13.141995, 14.50062, 16.225822, 18.11343, 19.632861, 20.987688, 22.846233,
    24.734153, 26.084379, 27.553711, 29.497133, 31.325166, 32.533401, 34.172443,
    36.15817, 37.863346,
]

TRUNCATED_ROOTS_REF = [
    0.99485153, 2.6157273, 4.714274, 6.5530274, 7.4597768, 9.3087986, 11.40681,
    13.013327, 14.017715, 16.008533, 18.084535, 19.412757, 20.648408, 22.710554,
    24.731574, 25.803417, 27.318167, 29.411466, 31.31806, 32.237695, 34.00686,
    36.107406, 37.813548,
]

# the reference lists carry 8 significant digits, the CSVs 9
ROOT_REL_TOL = 1e-7


def midspan_truncated_roots(length: float, mu_max: float) -> list:
    """Truncated roots below mu_max for l0 = l/2: (pi/l)(frac(j/2) + 2 floor(j/2))."""
    out = []
    j = 1
    while True:
        half = j / 2.0
        mu = (math.pi / length) * ((half - math.floor(half)) + 2.0 * math.floor(half))
        if mu >= mu_max:
            return out
        out.append(mu)
        j += 1
