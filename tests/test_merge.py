import numpy as np
import pytest

from paretomerge.checkpoint import Checkpoint
from paretomerge.errors import CompatibilityError, GenotypeError
from paretomerge.merge import (
    Genotype,
    MergeEndpoints,
    MergeKind,
    decode_genotype,
    merge_linear,
    merge_task_arithmetic,
    merge_ties,
)


def ckpt(arrays):
    return Checkpoint(tensors={k: np.asarray(v, dtype=np.float32) for k, v in arrays.items()})


def random_endpoints(seed, n_tensors=3, max_elems=200):
    rng = np.random.default_rng(seed)
    shapes = [tuple(int(rng.integers(1, 8)) for _ in range(int(rng.integers(1, 3))))
              for _ in range(n_tensors)]
    s2 = {f"t{i}": rng.standard_normal(s).astype(np.float32) for i, s in enumerate(shapes)}
    s1 = {f"t{i}": rng.standard_normal(s).astype(np.float32) for i, s in enumerate(shapes)}
    return MergeEndpoints(system2=Checkpoint(tensors=s2), system1=Checkpoint(tensors=s1))


def test_endpoints_require_compatibility():
    with pytest.raises(CompatibilityError):
        MergeEndpoints(system2=ckpt({"w": [1.0]}), system1=ckpt({"v": [1.0]}))


def test_ta_endpoints_byte_exact():
    ep = random_endpoints(0)
    at0 = merge_task_arithmetic(ep, 0.0)
    at1 = merge_task_arithmetic(ep, 1.0)
    for name in ep.system2.tensors:
        assert at0.tensors[name].tobytes() == ep.system2.tensors[name].tobytes()
        assert at1.tensors[name].tobytes() == ep.system1.tensors[name].tobytes()


def test_ta_midpoint():
    ep = MergeEndpoints(system2=ckpt({"w": [0.0]}), system1=ckpt({"w": [1.0]}))
    assert merge_task_arithmetic(ep, 0.5).tensors["w"][0] == 0.5


def test_ta_lambda_bounds():
    ep = random_endpoints(1)
    with pytest.raises(GenotypeError):
        merge_task_arithmetic(ep, 1.5)
    with pytest.raises(GenotypeError):
        merge_task_arithmetic(ep, -0.1)


def test_ta_interpolation_stays_within_endpoint_envelope():
    rng = np.random.default_rng(11)
    ep = random_endpoints(2)
    for lam in rng.uniform(0, 1, 25):
        merged = merge_task_arithmetic(ep, float(lam))
        for name in merged.tensors:
            lo = np.minimum(ep.system2.tensors[name], ep.system1.tensors[name])
            hi = np.maximum(ep.system2.tensors[name], ep.system1.tensors[name])
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
    ep = MergeEndpoints(system2=s2, system1=s1)
    merged = merge_ties(ep, lam=1.0, k=0.5)
    tau = s1.tensors["w"] - s2.tensors["w"]
    expected = brute_force_trim(tau, 0.5)
    assert np.array_equal(merged.tensors["w"], expected)
    assert np.array_equal(
        merged.tensors["w"], np.array([0.0, -0.5, 0.3, 0.0], dtype=np.float32)
    )


def test_ties_trim_matches_brute_force_random():
    rng = np.random.default_rng(5)
    for seed in range(10):
        ep = random_endpoints(100 + seed)
        k = float(rng.uniform(0.05, 1.0))
        merged = merge_ties(ep, lam=1.0, k=k)
        for name, s2 in ep.system2.tensors.items():
            tau = ep.system1.tensors[name] - s2
            expected = s2 + brute_force_trim(tau, k)
            # lam=1 on kept entries reproduces system1 exactly; trimmed stay at system2
            assert np.allclose(merged.tensors[name], expected, rtol=0, atol=1e-6)


def test_ties_magnitude_ties_keep_lower_flat_index():
    ep = MergeEndpoints(
        system2=ckpt({"w": [0.0, 0.0, 0.0, 0.0]}),
        system1=ckpt({"w": [0.5, -0.5, 0.5, -0.5]}),
    )
    merged = merge_ties(ep, lam=1.0, k=0.5)
    assert np.array_equal(merged.tensors["w"], [0.5, -0.5, 0.0, 0.0])


def test_ties_k1_reduces_to_ta_element_exact():
    for seed in range(5):
        ep = random_endpoints(200 + seed)
        for lam in (0.0, 0.3, 0.5, 0.71, 1.0):
            ties = merge_ties(ep, lam, 1.0)
            ta = merge_task_arithmetic(ep, lam)
            for name in ties.tensors:
                assert np.array_equal(ties.tensors[name], ta.tensors[name])


def test_ties_lambda_zero_returns_system2():
    ep = random_endpoints(9)
    merged = merge_ties(ep, 0.0, 0.25)
    for name, s2 in ep.system2.tensors.items():
        assert np.array_equal(merged.tensors[name], s2)


def test_ties_bounds():
    ep = random_endpoints(4)
    with pytest.raises(GenotypeError):
        merge_ties(ep, 0.5, 0.0)
    with pytest.raises(GenotypeError):
        merge_ties(ep, 0.5, 1.2)


def test_linear_identity_and_average_equivalence():
    ep = random_endpoints(6)
    ident = merge_linear(ep, 1.0, 0.0)
    for name, s2 in ep.system2.tensors.items():
        assert np.array_equal(ident.tensors[name], s2)

    avg = merge_linear(ep, 0.5, 0.5)
    ta_half = merge_task_arithmetic(ep, 0.5)
    for name in avg.tensors:
        a, b = avg.tensors[name], ta_half.tensors[name]
        ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
        assert (np.abs(a - b) <= ulp).all()


def test_linear_bounds_enforced():
    ep = random_endpoints(8)
    with pytest.raises(GenotypeError):
        merge_linear(ep, 2.0, 0.5)
    assert merge_linear(ep, 1.5, 0.0) is not None


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
    ep = random_endpoints(12)
    s2_out = decode_genotype(Genotype(MergeKind.TA, (0.0,)), ep)
    for name, s2 in ep.system2.tensors.items():
        assert np.array_equal(s2_out.tensors[name], s2)

    ties_out = decode_genotype(Genotype(MergeKind.TIES, (0.5, 1.0)), ep)
    ta_out = decode_genotype(Genotype(MergeKind.TA, (0.5,)), ep)
    for name in ties_out.tensors:
        assert np.array_equal(ties_out.tensors[name], ta_out.tensors[name])

    lin_out = decode_genotype(Genotype(MergeKind.LINEAR, (1.0, 0.0)), ep)
    for name, s2 in ep.system2.tensors.items():
        assert np.array_equal(lin_out.tensors[name], s2)
