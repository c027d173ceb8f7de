import math

import numpy as np
import pytest

from shakerbeam import BeamParameters, Target, scan_roots


@pytest.fixture(scope="session")
def params() -> BeamParameters:
    """The measured aluminium beam with the shaker at l0 = 1.4 m."""
    return BeamParameters(
        youngs_modulus=6.9e10,
        second_moment=1.6875e-10,
        linear_density=2700.0 * 2.25e-4,
        length=1.905,
        attachment_point=1.4,
        shaker_mass=0.1,
        spring_stiffness=7000.0,
    )


@pytest.fixture(scope="session")
def half_params() -> BeamParameters:
    """Midspan attachment variant (l0 = l/2) with closed-form truncated roots."""
    return BeamParameters(
        youngs_modulus=6.9e10,
        second_moment=1.6875e-10,
        linear_density=0.6075,
        length=2.0,
        attachment_point=1.0,
        shaker_mass=0.1,
        spring_stiffness=7000.0,
    )


def default_step(params: BeamParameters) -> float:
    return math.pi / (80.0 * params.length)


def seeded_beams(seed: int, count: int) -> list:
    """count random beams with l in (0.5, 2.5) and l0/l in (0.1, 0.9)."""
    rng = np.random.default_rng(seed)
    beams = []
    for _ in range(count):
        l = rng.uniform(0.5, 2.5)
        l0 = l * rng.uniform(0.1, 0.9)
        beams.append(
            BeamParameters(
                youngs_modulus=10.0 ** rng.uniform(0.0, 2.0),
                second_moment=1.0,
                linear_density=10.0 ** rng.uniform(-1.0, 1.0),
                length=l,
                attachment_point=l0,
                shaker_mass=10.0 ** rng.uniform(-2.0, 0.0),
                spring_stiffness=10.0 ** rng.uniform(2.0, 5.0),
            )
        )
    return beams


@pytest.fixture(scope="session")
def exact_roots(params):
    return scan_roots(Target.Phi, params, 0.1, 38.5, default_step(params))


@pytest.fixture(scope="session")
def truncated_roots(params):
    return scan_roots(Target.Phi0, params, 0.1, 38.5, default_step(params))


# Reference root lists for the default beam, frozen from two independent
# high-precision solvers (50-digit bisection on the closed form, and a
# 4x4-determinant bisection); they agree to 13 significant digits.
EXACT_ROOTS_REF = [
    2.5518452,
    4.5727357,
    5.6182439,
    6.6081738,
    8.198128,
    9.7214698,
    11.494498,
    13.141995,
    14.50062,
    16.225822,
    18.11343,
    19.632861,
    20.987688,
    22.846233,
    24.734153,
    26.084379,
    27.553711,
    29.497133,
    31.325166,
    32.533401,
    34.172443,
    36.15817,
    37.863346,
]

TRUNCATED_ROOTS_REF = [
    0.99485153,
    2.6157273,
    4.714274,
    6.5530274,
    7.4597768,
    9.3087986,
    11.40681,
    13.013327,
    14.017715,
    16.008533,
    18.084535,
    19.412757,
    20.648408,
    22.710554,
    24.731574,
    25.803417,
    27.318167,
    29.411466,
    31.31806,
    32.237695,
    34.00686,
    36.107406,
    37.813548,
]
