import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretomerge.checkpoint import Checkpoint
from paretomerge.errors import CompatibilityError, GenotypeError
from paretomerge.merge import (
    Genotype,
    MergeKind,
    decode_genotype,
    merge_tensor,
)


def ckpt(arrays):
    return Checkpoint(tensors={k: np.asarray(v, dtype=np.float32) for k, v in arrays.items()})


def merge(system2, system1, kind, *values):
    return decode_genotype(Genotype(kind, values), system2, system1)


def random_endpoints(seed, n_tensors=3, max_elems=200):
    rng = np.random.default_rng(seed)
    shapes = [tuple(int(rng.integers(1, 8)) for _ in range(int(rng.integers(1, 3))))
              for _ in range(n_tensors)]
    s2 = {f"t{i}": rng.standard_normal(s).astype(np.float32) for i, s in enumerate(shapes)}
    s1 = {f"t{i}": rng.standard_normal(s).astype(np.float32) for i, s in enumerate(shapes)}
    return Checkpoint(tensors=s2), Checkpoint(tensors=s1)


def test_endpoints_require_compatibility():
    message = "incompatible checkpoints: missing in b: ['w']; missing in a: ['v']"
    with pytest.raises(CompatibilityError, match=f"^{re.escape(message)}$"):
        merge(ckpt({"w": [1.0]}), ckpt({"v": [1.0]}), MergeKind.TA, 0.5)


def test_ta_endpoints_byte_exact():
    system2, system1 = random_endpoints(0)
    at0 = merge(system2, system1, MergeKind.TA, 0.0)
    at1 = merge(system2, system1, MergeKind.TA, 1.0)
    for name in system2.tensors:
        assert at0.tensors[name].tobytes() == system2.tensors[name].tobytes()
        assert at1.tensors[name].tobytes() == system1.tensors[name].tobytes()


def test_ta_midpoint():
    assert merge(ckpt({"w": [0.0]}), ckpt({"w": [1.0]}), MergeKind.TA, 0.5).tensors["w"][0] == 0.5


def test_ta_lambda_bounds():
    system2, system1 = random_endpoints(1)
    with pytest.raises(GenotypeError, match=r"^ta: lambda must lie in \[0, 1\], got 1.5$"):
        merge(system2, system1, MergeKind.TA, 1.5)
    with pytest.raises(GenotypeError, match=r"^ta: lambda must lie in \[0, 1\], got -0.1$"):
        merge(system2, system1, MergeKind.TA, -0.1)


def test_ta_interpolation_stays_within_endpoint_envelope():
    rng = np.random.default_rng(11)
    system2, system1 = random_endpoints(2)
    for lam in rng.uniform(0, 1, 25):
        merged = merge(system2, system1, MergeKind.TA, float(lam))
        for name in merged.tensors:
            lo = np.minimum(system2.tensors[name], system1.tensors[name])
            hi = np.maximum(system2.tensors[name], system1.tensors[name])
            eps = 1e-6 * (np.abs(lo) + np.abs(hi) + 1.0)
            assert (merged.tensors[name] >= lo - eps).all()
            assert (merged.tensors[name] <= hi + eps).all()


def brute_force_trim(tau, k):
    """Oracle: sort entries by |value| descending, keep ceil(k*n), zero the rest."""
    import math

    flat = tau.ravel()
    keep = math.ceil(k * flat.size)
    order = sorted(range(flat.size), key=lambda i: (-abs(flat[i]), i))[:keep]
    out = np.zeros_like(flat)
    out[list(order)] = flat[list(order)]
    return out.reshape(tau.shape)


def test_ties_trim_matches_brute_force_example():
    s2 = ckpt({"w": [0.0, 0.0, 0.0, 0.0]})
    s1 = ckpt({"w": [0.1, -0.5, 0.3, -0.05]})
    merged = merge(s2, s1, MergeKind.TIES, 1.0, 0.5)
    tau = s1.tensors["w"] - s2.tensors["w"]
    expected = brute_force_trim(tau, 0.5)
    assert np.array_equal(merged.tensors["w"], expected)
    assert np.array_equal(
        merged.tensors["w"], np.array([0.0, -0.5, 0.3, 0.0], dtype=np.float32)
    )


def test_ties_trim_matches_brute_force_random():
    rng = np.random.default_rng(5)
    for seed in range(10):
        system2, system1 = random_endpoints(100 + seed)
        k = float(rng.uniform(0.05, 1.0))
        merged = merge(system2, system1, MergeKind.TIES, 1.0, k)
        for name, s2 in system2.tensors.items():
            tau = system1.tensors[name] - s2
            expected = s2 + brute_force_trim(tau, k)
            # lam=1 on kept entries reproduces system1 exactly; trimmed stay at system2
            assert np.allclose(merged.tensors[name], expected, rtol=0, atol=1e-6)


def test_ties_magnitude_ties_keep_lower_flat_index():
    system2, system1 = ckpt({"w": [0.0, 0.0, 0.0, 0.0]}), ckpt({"w": [0.5, -0.5, 0.5, -0.5]})
    merged = merge(system2, system1, MergeKind.TIES, 1.0, 0.5)
    assert np.array_equal(merged.tensors["w"], [0.5, -0.5, 0.0, 0.0])


def argsort_mask(tau, k):
    """Slow oracle: the first ceil(k*n) entries of a stable argsort of -|tau|."""
    flat = tau.ravel()
    keep = min(flat.size, math.ceil(k * flat.size))
    mask = np.zeros(flat.size, dtype=bool)
    mask[np.argsort(-np.abs(flat), kind="stable")[:keep]] = True
    return mask.reshape(tau.shape)


def assert_ties_matches_oracle(s2, s1, lam, k):
    s2, s1 = np.asarray(s2, dtype=np.float32), np.asarray(s1, dtype=np.float32)
    lam32 = np.float32(lam)
    with np.errstate(invalid="ignore"):  # 0 * inf where tau is infinite
        got = merge_tensor(Genotype(MergeKind.TIES, (lam, k)), s2, s1)
        want = np.where(argsort_mask(s1 - s2, k), (np.float32(1.0) - lam32) * s2 + lam32 * s1, s2)
    assert got.dtype == np.float32 and got.shape == s2.shape
    assert np.array_equal(got.view(np.uint32), want.astype(np.float32).view(np.uint32))
    return got


QUANTIZED = np.random.default_rng(21).integers(-3, 4, (9, 11)) / 4


@pytest.mark.parametrize("s2, s1, k", [
    (np.zeros((9, 11)), QUANTIZED, 0.3),  # quantized tau, k inside the 0.75 run
    (np.zeros((9, 11)), QUANTIZED, 0.55),  # k inside the 0.5 run
    (QUANTIZED, QUANTIZED + 0.5, 0.37),  # all-equal |tau|
    (np.zeros(8), [0.0, -0.0, 0.5, -0.0, 0.0, -0.5, -0.0, 0.0], 0.5),  # k inside the zeros
    (np.zeros(6), [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0], 0.5),  # all signed zeros
    (np.zeros(7), [0.25, -1.0, 0.25, 1.0, -0.25, 0.5, 1.0], 0.001),  # keep_count == 1
    (np.zeros(7), [0.25, -1.0, 0.25, 1.0, -0.25, 0.5, 1.0], 1.0),  # keep_count == n
    (np.ones(5), [np.inf, 1.0, -np.inf, 2.0, 0.0], 0.4),  # infinite tau ranks first
])
def test_ties_matches_stable_argsort_oracle_on_ties(s2, s1, k):
    for lam in (0.0, 0.5, 0.7, 1.0):
        assert_ties_matches_oracle(s2, s1, lam, k)


def test_ties_nan_entries_follow_every_number():
    # 6 numbers and 4 NaNs; NaN tau is kept only once k*n exceeds 6, lowest index first
    s1 = np.array([np.nan, 0.5, np.nan, -0.5, 0.25, np.nan, 0.0, 1.0, np.nan, -0.25])
    s2 = np.zeros(10)
    nan_kept = []
    for keep in range(1, 11):
        merged = assert_ties_matches_oracle(s2, s1, 0.5, (keep - 0.5) / 10)
        nan_kept.append(int(np.isnan(merged).sum()))
    assert nan_kept == [0, 0, 0, 0, 0, 0, 1, 2, 3, 4]
    merged = assert_ties_matches_oracle(s2, s1, 0.5, 0.75)
    assert np.isnan(merged[[0, 2]]).all() and merged[5] == 0.0 and merged[8] == 0.0
    # all-NaN tensor: the threshold itself is NaN and there are no numbers
    merged = assert_ties_matches_oracle(np.zeros(4), np.full(4, np.nan), 0.5, 0.5)
    assert np.isnan(merged).tolist() == [True, True, False, False]


TIE_VALUES = [0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, np.nan]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    shape=st.one_of(st.tuples(st.integers(1, 40)), st.tuples(st.integers(1, 6), st.integers(1, 6))),
    data=st.data(),
    lam=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    k=st.floats(0.0, 1.0, exclude_min=True),
)
def test_ties_mask_equals_stable_argsort_property(shape, data, lam, k):
    n = math.prod(shape)
    tau = data.draw(st.lists(st.sampled_from(TIE_VALUES), min_size=n, max_size=n))
    base = data.draw(st.lists(st.sampled_from([0.0, 0.5, -2.0]), min_size=n, max_size=n))
    s2 = np.array(base, dtype=np.float32).reshape(shape)
    assert_ties_matches_oracle(s2, s2 + np.array(tau, dtype=np.float32).reshape(shape), lam, k)


def test_ties_k1_reduces_to_ta_element_exact():
    for seed in range(5):
        system2, system1 = random_endpoints(200 + seed)
        for lam in (0.0, 0.3, 0.5, 0.71, 1.0):
            ties = merge(system2, system1, MergeKind.TIES, lam, 1.0)
            ta = merge(system2, system1, MergeKind.TA, lam)
            for name in ties.tensors:
                assert np.array_equal(ties.tensors[name], ta.tensors[name])


def test_ties_lambda_zero_returns_system2():
    system2, system1 = random_endpoints(9)
    merged = merge(system2, system1, MergeKind.TIES, 0.0, 0.25)
    for name, s2 in system2.tensors.items():
        assert np.array_equal(merged.tensors[name], s2)


def test_ties_bounds():
    system2, system1 = random_endpoints(4)
    with pytest.raises(GenotypeError, match=r"^ties: density k must lie in \(0, 1\], got 0.0$"):
        merge(system2, system1, MergeKind.TIES, 0.5, 0.0)
    with pytest.raises(GenotypeError, match=r"^ties: density k must lie in \(0, 1\], got 1.2$"):
        merge(system2, system1, MergeKind.TIES, 0.5, 1.2)
    with pytest.raises(GenotypeError, match=r"^ties: lambda must lie in \[0, 1\], got 1.1$"):
        merge(system2, system1, MergeKind.TIES, 1.1, 0.5)


def test_linear_identity_and_average_equivalence():
    system2, system1 = random_endpoints(6)
    ident = merge(system2, system1, MergeKind.LINEAR, 1.0, 0.0)
    for name, s2 in system2.tensors.items():
        assert np.array_equal(ident.tensors[name], s2)

    avg = merge(system2, system1, MergeKind.LINEAR, 0.5, 0.5)
    ta_half = merge(system2, system1, MergeKind.TA, 0.5)
    for name in avg.tensors:
        a, b = avg.tensors[name], ta_half.tensors[name]
        ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
        assert (np.abs(a - b) <= ulp).all()


def test_linear_bounds_enforced():
    system2, system1 = random_endpoints(8)
    with pytest.raises(GenotypeError, match=r"^linear: w_system2=2.0 outside bounds \[0.0, 1.5\]$"):
        merge(system2, system1, MergeKind.LINEAR, 2.0, 0.5)
    with pytest.raises(GenotypeError, match=r"^linear: w_system1=-0.1 outside bounds \[0.0, 1.5\]$"):
        merge(system2, system1, MergeKind.LINEAR, 0.5, -0.1)
    assert merge(system2, system1, MergeKind.LINEAR, 1.5, 0.0) is not None


def test_genotype_validation():
    Genotype(MergeKind.TA, (0.5,)).validate()
    with pytest.raises(GenotypeError):
        Genotype(MergeKind.TA, (1.5,)).validate()
    with pytest.raises(GenotypeError):
        Genotype(MergeKind.TA, (0.5, 0.5)).validate()
    with pytest.raises(GenotypeError):
        Genotype(MergeKind.TIES, (0.5, 0.0)).validate()
    with pytest.raises(GenotypeError):
        Genotype(MergeKind.LINEAR, (1.6, 0.0)).validate()
    Genotype(MergeKind.LINEAR, (1.5, 0.0)).validate()


def test_decode_genotype_dispatch():
    system2, system1 = random_endpoints(12)
    s2_out = decode_genotype(Genotype(MergeKind.TA, (0.0,)), system2, system1)
    for name, s2 in system2.tensors.items():
        assert np.array_equal(s2_out.tensors[name], s2)

    ties_out = decode_genotype(Genotype(MergeKind.TIES, (0.5, 1.0)), system2, system1)
    ta_out = decode_genotype(Genotype(MergeKind.TA, (0.5,)), system2, system1)
    for name in ties_out.tensors:
        assert np.array_equal(ties_out.tensors[name], ta_out.tensors[name])

    lin_out = decode_genotype(Genotype(MergeKind.LINEAR, (1.0, 0.0)), system2, system1)
    for name, s2 in system2.tensors.items():
        assert np.array_equal(lin_out.tensors[name], s2)

    # metadata keys in header order, each value written as repr(float)
    assert list(s2_out.metadata.items()) == [("op", "ta"), ("lambda", "0.0")]
    assert list(ties_out.metadata.items()) == [("op", "ties"), ("lambda", "0.5"), ("k", "1.0")]
    assert list(lin_out.metadata.items()) == [
        ("op", "linear"), ("w_system2", "1.0"), ("w_system1", "0.0")
    ]
    # tensors follow system2's order, not system1's or a sorted one
    flipped = Checkpoint(dict(reversed(system2.tensors.items())))
    flipped_out = decode_genotype(Genotype(MergeKind.TIES, (0.5, 1.0)), flipped, system1)
    assert list(flipped_out.tensors) == ["t2", "t1", "t0"]
    for name in ties_out.tensors:
        assert np.array_equal(flipped_out.tensors[name], ties_out.tensors[name])
