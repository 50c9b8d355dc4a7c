import numpy as np
import pytest

from concm import rng
from concm.errors import ShapeError


def reference_gaussian(gen, shape):
    """Box-Muller as one expression per step: the reference for the
    in-place draws."""
    n = int(np.prod(shape)) if shape else 1
    half = (n + 1) // 2
    u1 = 1.0 - rng.uniform(gen, half)
    u2 = rng.uniform(gen, half)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
    return z.reshape(shape)


@pytest.mark.parametrize("shape", [(6900, 512), (101, 64), (3, 5), (1,), (),
                                   (0, 4), (7,), (2, 3, 5)])
def test_gaussian_bitwise_equals_reference(shape):
    want = reference_gaussian(rng.stream(4, "ref", str(shape)), shape)
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
    want = reference_gaussian(rng.stream(9, "slice", rows), (rows, 7))
    assert big[offset:offset + rows].tobytes() == want.tobytes()
    assert (big[:offset] == -5.0).all() and (big[offset + rows:] == -5.0).all()


def test_gaussian_rejects_an_unusable_out():
    gen = rng.stream(0, "bad-out")
    with pytest.raises(ShapeError):
        rng.gaussian(gen, (4, 3), out=np.empty((4, 2)))
    with pytest.raises(ShapeError):
        rng.gaussian(gen, (4, 3), out=np.empty((3, 4)).T)
    with pytest.raises(ShapeError):
        rng.gaussian(gen, (4, 3), out=np.empty((4, 3), dtype=np.float32))
