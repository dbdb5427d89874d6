"""The closed form of the expected-distinction proposition, which the tests
check against Monte-Carlo estimates of threshold straddles."""


def expected_distinction(t: float) -> float:
    """Expected probability 2*t*(1-t) that an item separates two random candidates.

    Under the ascending-threshold response model with two candidates drawn
    uniformly from [0, 1], the item distinguishes them exactly when the two
    draws straddle the threshold.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return 2.0 * t * (1.0 - t)
