"""Unit and property tests for GF(2^m) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.ecc import gf_div, gf_inv, gf_mul, poly_divmod, poly_eval_many
from repro.ecc.gf import GaloisField


@pytest.fixture(scope="module")
def gf8():
    return GaloisField.get(8)


@pytest.fixture(scope="module")
def gf4():
    return GaloisField.get(4)


class TestConstruction:
    def test_cached_instances(self):
        assert GaloisField.get(8) is GaloisField.get(8)

    def test_unsupported_degree(self):
        with pytest.raises(ValueError, match="unsupported"):
            GaloisField(1)

    @pytest.mark.parametrize("m", [2, 4, 8, 12, 16])
    def test_order(self, m):
        field = GaloisField.get(m)
        assert field.order == 2**m
        assert field.max_value == 2**m - 1

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_alpha_generates_multiplicative_group(self, m):
        field = GaloisField.get(m)
        seen = set()
        value = 1
        for _ in range(field.max_value):
            seen.add(value)
            value = gf_mul(field, value, 2)  # alpha = x = 2
        assert len(seen) == field.max_value

    def test_repr_mentions_degree(self, gf8):
        assert "2^8" in repr(gf8)

    @pytest.mark.parametrize("m", range(2, 17))
    def test_every_polynomial_is_primitive(self, m):
        """alpha's powers cover the whole multiplicative group, so every
        nonzero element has a log and an inverse."""
        field = GaloisField.get(m)
        powers = {field.alpha_pow(k) for k in range(field.max_value)}
        assert powers == set(range(1, field.order))
        elements = np.arange(1, field.order)
        np.testing.assert_array_equal(
            field.mul_vec(elements, field.inv_vec(elements)), 1
        )


class TestScalarOps:
    def test_add_is_xor(self, gf8):
        assert gf8.add(0b1010, 0b0110) == 0b1100

    def test_mul_by_zero(self, gf8):
        assert gf_mul(gf8, 0, 123) == 0
        assert gf_mul(gf8, 123, 0) == 0

    def test_mul_by_one(self, gf8):
        for value in (1, 7, 255):
            assert gf_mul(gf8, value, 1) == value

    def test_known_product_gf256(self, gf8):
        # With the 0x11D polynomial, the inverse of 2 is 0x8E:
        # 2 * 0x8E = 0x11C, reduced by 0x11D gives 1.
        assert gf_mul(gf8, 0x02, 0x8E) == 0x01

    def test_div_inverse_of_mul(self, gf8):
        product = gf_mul(gf8, 77, 199)
        assert gf_mul(gf8, product, gf_inv(gf8, 199)) == 77
        assert gf_div(gf8, product, 199) == 77  # the oracle's Forney division

    def test_div_by_zero(self, gf8):
        with pytest.raises(ZeroDivisionError):
            gf_div(gf8, 5, 0)

    def test_inv(self, gf8):
        for value in (1, 2, 100, 255):
            assert gf_mul(gf8, value, gf_inv(gf8, value)) == 1

    def test_inv_zero(self, gf8):
        with pytest.raises(ZeroDivisionError):
            gf_inv(gf8, 0)

    def test_alpha_pow_wraps(self, gf8):
        assert gf8.alpha_pow(0) == 1
        assert gf8.alpha_pow(gf8.max_value) == 1
        assert gf8.alpha_pow(-1) == gf_inv(gf8, 2)

    @settings(max_examples=200)
    @given(st.integers(1, 255), st.integers(1, 255), st.integers(1, 255))
    def test_mul_associative(self, a, b, c):
        field = GaloisField.get(8)
        assert gf_mul(field, gf_mul(field, a, b), c) \
            == gf_mul(field, a, gf_mul(field, b, c))

    @settings(max_examples=200)
    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_distributive(self, a, b, c):
        field = GaloisField.get(8)
        left = gf_mul(field, a, b ^ c)
        right = gf_mul(field, a, b) ^ gf_mul(field, a, c)
        assert left == right


class TestVectorOps:
    def test_mul_vec_matches_scalar(self, gf8, rng):
        a = rng.integers(0, 256, 50)
        b = rng.integers(0, 256, 50)
        expected = [gf_mul(gf8, int(x), int(y)) for x, y in zip(a, b)]
        np.testing.assert_array_equal(gf8.mul_vec(a, b), expected)

    def test_mul_vec_broadcast(self, gf8):
        result = gf8.mul_vec(np.array([1, 2, 3]), np.array([7]))
        expected = [gf_mul(gf8, v, 7) for v in (1, 2, 3)]
        np.testing.assert_array_equal(result, expected)

    def test_scale_vec_zero_scalar(self, gf8):
        np.testing.assert_array_equal(
            gf8.scale_vec(np.array([1, 2, 3]), 0), [0, 0, 0]
        )

    def test_scale_vec_matches_scalar(self, gf8, rng):
        a = rng.integers(0, 256, 30)
        np.testing.assert_array_equal(
            gf8.scale_vec(a, 93), [gf_mul(gf8, int(x), 93) for x in a]
        )

    def test_inv_vec_matches_scalar(self, gf8, rng):
        a = rng.integers(1, 256, 40)
        np.testing.assert_array_equal(
            gf8.inv_vec(a), [gf_inv(gf8, int(x)) for x in a]
        )

    def test_inv_vec_rejects_zero(self, gf8):
        with pytest.raises(ZeroDivisionError):
            gf8.inv_vec(np.array([3, 0, 5]))

    def test_div_vec_matches_scalar(self, gf8, rng):
        a = rng.integers(0, 256, 40)
        b = rng.integers(1, 256, 40)
        np.testing.assert_array_equal(
            gf8.div_vec(a, b),
            [gf_div(gf8, int(x), int(y)) for x, y in zip(a, b)],
        )

    def test_div_vec_undoes_mul_vec(self, rng):
        field = GaloisField.get(16)
        a = rng.integers(0, field.order, 100)
        b = rng.integers(1, field.order, 100)
        np.testing.assert_array_equal(
            field.div_vec(field.mul_vec(a, b), b), a
        )

    def test_div_vec_broadcast(self, gf8):
        result = gf8.div_vec(np.array([[0, 6], [9, 200]]), np.array([3]))
        assert result.shape == (2, 2)
        assert result[0, 0] == 0
        assert gf_mul(gf8, int(result[1, 1]), 3) == 200

    def test_div_vec_rejects_zero_divisor(self, gf8):
        with pytest.raises(ZeroDivisionError):
            gf8.div_vec(np.array([1, 2]), np.array([4, 0]))


def horner(field, poly, x):
    """Scalar Horner evaluation, highest-degree coefficient first."""
    result = 0
    for coeff in poly:
        result = gf_mul(field, result, x) ^ int(coeff)
    return result


class TestPolynomialOps:
    def test_poly_eval_constant(self, gf8):
        assert poly_eval_many(gf8, np.array([42]), np.array([17])) == [42]

    def test_poly_eval_linear(self, gf8):
        # p(x) = 3x + 5 at x=2: 3*2 ^ 5
        assert poly_eval_many(gf8, np.array([3, 5]), np.array([2])) \
            == [gf_mul(gf8, 3, 2) ^ 5]

    def test_poly_eval_many_matches_scalar(self, gf8, rng):
        poly = rng.integers(0, 256, 6)
        xs = rng.integers(0, 256, 10)
        expected = [horner(gf8, poly, int(x)) for x in xs]
        np.testing.assert_array_equal(poly_eval_many(gf8, poly, xs), expected)

    def test_poly_eval_grid_matches_rows(self, gf8, rng):
        polys = rng.integers(0, 256, (5, 7))
        xs = rng.integers(0, 256, 12)
        grid = gf8.poly_eval_grid(polys, xs)
        assert grid.shape == (5, 12)
        for row, poly in zip(grid, polys):
            np.testing.assert_array_equal(row, poly_eval_many(gf8, poly, xs))

    def test_poly_eval_grid_ignores_leading_zeros(self, gf8, rng):
        poly = rng.integers(0, 256, 4)
        padded = np.concatenate([[0, 0, 0], poly])
        xs = np.arange(256)
        grid = gf8.poly_eval_grid(np.stack([padded, padded]), xs)
        np.testing.assert_array_equal(grid[0], poly_eval_many(gf8, poly, xs))
        np.testing.assert_array_equal(grid[0], grid[1])

    def test_poly_eval_grid_finds_roots(self, gf8):
        """The Chien-search use: (x - a)(x - b) vanishes exactly at a, b."""
        poly = gf8.poly_mul(np.array([1, 17]), np.array([1, 200]))
        values = gf8.poly_eval_grid(poly[None, :], np.arange(256))[0]
        assert np.flatnonzero(values == 0).tolist() == [17, 200]

    def test_poly_mul_degree(self, gf4):
        p = np.array([1, 2])
        q = np.array([1, 0, 3])
        assert len(gf4.poly_mul(p, q)) == 4

    def test_poly_mul_by_one(self, gf8, rng):
        poly = rng.integers(0, 256, 5)
        np.testing.assert_array_equal(gf8.poly_mul(np.array([1]), poly), poly)

    def test_poly_divmod_identity(self, gf8, rng):
        dividend = rng.integers(0, 256, 8)
        divisor = np.concatenate([[1], rng.integers(0, 256, 3)])
        quotient, remainder = poly_divmod(gf8, dividend, divisor)
        recombined = gf8.poly_mul(quotient, divisor)
        recombined[recombined.size - remainder.size:] ^= remainder
        np.testing.assert_array_equal(
            np.trim_zeros(recombined, "f"), np.trim_zeros(dividend, "f")
        )

    def test_poly_divmod_by_zero(self, gf8):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(gf8, np.array([1, 2]), np.array([0]))

    def test_poly_divmod_short_dividend(self, gf8):
        quotient, remainder = poly_divmod(gf8, np.array([7]),
                                          np.array([1, 0, 0]))
        np.testing.assert_array_equal(quotient, [0])
        np.testing.assert_array_equal(remainder, [7])
