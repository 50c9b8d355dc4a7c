import numpy as np
import pytest

from concm import rng


def reference_gaussian(master, *labels, shape):
    """numpy's ziggurat on an SFC64 generator seeded with the substream's
    derived seed: the reference for every draw."""
    gen = np.random.Generator(np.random.SFC64(rng.derive_seed(master, *labels)))
    return gen.standard_normal(shape)


@pytest.mark.parametrize("shape", [(6900, 512), (101, 64), (3, 5), (1,), (),
                                   (0, 4), (7,), (2, 3, 5)])
def test_gaussian_bitwise_equals_reference(shape):
    want = reference_gaussian(4, "ref", str(shape), shape=shape)
    got = rng.gaussian(rng.stream(4, "ref", str(shape)), shape)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    out = np.empty(shape)
    assert rng.gaussian(rng.stream(4, "ref", str(shape)), shape, out=out) is out
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, 2, 5, 33])
@pytest.mark.parametrize("offset", [0, 1, 3])
def test_gaussian_into_row_slice_writes_only_the_slice(rows, offset):
    big = np.full((offset + rows + 2, 7), -5.0)
    got = rng.gaussian(rng.stream(9, "slice", rows), (rows, 7),
                       out=big[offset:offset + rows])
    assert np.shares_memory(got, big)
    want = reference_gaussian(9, "slice", rows, shape=(rows, 7))
    assert big[offset:offset + rows].tobytes() == want.tobytes()
    assert (big[:offset] == -5.0).all() and (big[offset + rows:] == -5.0).all()


def test_gaussian_rejects_an_unusable_out():
    # numpy's standard_normal checks the shape and dtype; a Fortran-ordered
    # out, which numpy would fill in memory order, is rejected by gaussian
    gen = rng.stream(0, "bad-out")
    with pytest.raises(ValueError):
        rng.gaussian(gen, (4, 3), out=np.empty((4, 2)))
    with pytest.raises(ValueError):
        rng.gaussian(gen, (4, 3), out=np.empty((3, 4)).T)
    with pytest.raises(TypeError):
        rng.gaussian(gen, (4, 3), out=np.empty((4, 3), dtype=np.float32))


def test_gaussian_moments_of_a_million_draws():
    # each sample moment within 5 standard errors of N(0, 1)'s: mean 0,
    # variance 1, skewness 0, excess kurtosis 0 (errors 1, sqrt 2, sqrt 6
    # and sqrt 24 over sqrt n)
    n = 10 ** 6
    z = rng.gaussian(rng.stream(11, "moments"), (n,))
    m = z.mean()
    c = z - m
    var = (c ** 2).mean()
    skew = (c ** 3).mean() / var ** 1.5
    kurt = (c ** 4).mean() / var ** 2 - 3.0
    for got, want, se in [(m, 0.0, 1.0), (var, 1.0, 2.0 ** 0.5),
                          (skew, 0.0, 6.0 ** 0.5), (kurt, 0.0, 24.0 ** 0.5)]:
        assert abs(got - want) <= 5.0 * se / n ** 0.5
