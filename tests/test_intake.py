"""The one intake rule for arrays a library caller passes in.

Every array-taking entry point converts its input by ``linalg._numeric``
(or ``linalg._unit_rows`` for unit vectors): integer, float and, where
allowed, complex entries only, one shape, and finite. So each entry point
refuses a string, bytes, a bool (alone or among numbers), None, a complex
entry where a real is required, a long double wider than float64 or
complex128, a ragged nesting and NaN with its documented class, never with
a TypeError, never with a warning, and never by returning.
"""

import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pqclab import (
    AlgebraSpec,
    AntipodalPair,
    BlochVector,
    Channel,
    DensityOperator,
    GreatCircle,
    PauliTransfer,
    PQCInstance,
    apply,
    bloch_to_ket,
    convex_mix,
    density_to_bloch,
    diagonal_algebra,
    from_kraus,
    is_psd,
    is_separating,
    is_trace_vector,
    kraus_from_choi,
    max_abs_diff,
    nullspace_basis,
    partial_trace,
    project_onto_algebra,
    random_unitary,
)
from pqclab.errors import DimensionMismatch, NotUnitVector, PqclabError

E2 = from_kraus([np.eye(2)])
HALF = np.eye(2) / 2
DELTA2 = diagonal_algebra(2)
EYE2 = [[1.0, 0.0], [0.0, 1.0]]
PURE = [[1.0, 0.0], [0.0, 0.0]]

# name -> (a valid input, the call on it, whether entries must be real,
# whether it is a unit vector, so that NaN fails its norm)
SITES = {
    "Channel": ([EYE2], Channel, False, False),
    "from_kraus": ([EYE2], from_kraus, False, False),
    "DensityOperator": (PURE, DensityOperator, False, False),
    "AlgebraSpec.basis_change": (EYE2, lambda u: AlgebraSpec(((1, 1), (1, 1)), 0, u), False, False),
    "PQCInstance": ([[1.0, 0.0]], lambda s: PQCInstance(s, E2, HALF), False, True),
    "is_trace_vector": ([1.0, 0.0], lambda v: is_trace_vector(v, DELTA2, HALF), False, True),
    "is_separating": ([1.0, 0.0], lambda v: is_separating(v, DELTA2), False, False),
    "apply_matrix": (PURE, E2.apply_matrix, False, False),
    "apply": (PURE, lambda rho: apply(E2, rho), False, False),
    "BlochVector": ([0.0, 0.0, 1.0], BlochVector, True, False),
    "PauliTransfer.T": (np.eye(3).tolist(), lambda T: PauliTransfer(T, [0.0] * 3), False, False),
    "PauliTransfer.t": ([0.0, 0.0, 0.0], lambda t: PauliTransfer(np.eye(3), t), False, False),
    "GreatCircle": ([0.0, 0.0, 1.0], GreatCircle, True, False),
    "AntipodalPair": (EYE2, AntipodalPair, False, False),
    "kraus_from_choi": (PURE, lambda j: kraus_from_choi(j, 1, 2), False, False),
    "is_psd": (EYE2, is_psd, False, False),
    "max_abs_diff": (EYE2, lambda a: max_abs_diff(a, np.eye(2)), False, False),
    "nullspace_basis": (EYE2, nullspace_basis, False, False),
    "partial_trace": (EYE2, lambda x: partial_trace(x, 1, 2, "left"), False, False),
    "project_onto_algebra": (EYE2, lambda x: project_onto_algebra(DELTA2, x), False, False),
    "random_unitary.probs": (
        [1.0, 0.0], lambda p: random_unitary(p, [np.eye(2), np.eye(2)]), True, False
    ),
    "random_unitary.unitaries": (EYE2, lambda u: random_unitary([1.0], [u]), False, False),
    "convex_mix.weights": ([1.0, 0.0], lambda w: convex_mix(w, [E2, E2]), True, False),
    "density_to_bloch": (PURE, density_to_bloch, False, False),
    "bloch_to_ket": ([0.0, 0.0, 1.0], bloch_to_ket, True, False),
}

BAD = {
    "str": "1",
    "bytes": b"1",
    "bool": True,
    "none": None,
    "complex": 1j,
    "ragged": [0.0, 1.0],
    "nan": math.nan,
}
# a long double wider than float64 would be rounded by the cast (x86-64: 80 bits)
if np.dtype(np.longdouble).itemsize > 8:
    BAD["longdouble"] = np.longdouble(1) + np.longdouble(1e-18)
    BAD["clongdouble"] = np.clongdouble(1) + np.longdouble(1e-18)


def _fill(valid, bad):
    """valid with its first entry replaced by bad."""
    out = copy.deepcopy(valid)
    row = out
    while isinstance(row[0], list):
        row = row[0]
    row[0] = bad
    return out


def _expected(site: str, case: str):
    if case == "ragged":
        return DimensionMismatch
    if case == "nan" and SITES[site][3]:
        return NotUnitVector
    return ValueError


TABLE = [
    pytest.param(site, case, id=f"{site}-{case}")
    for site, (_, _, real, _) in SITES.items()
    for case in BAD
    # a complex entry is a number where complex is allowed; max_abs_diff
    # answers NaN for NaN, which from_kraus and AlgebraSpec read as a failure
    if (case != "complex" or real) and (site, case) != ("max_abs_diff", "nan")
]


@pytest.mark.parametrize("site", SITES)
def test_every_valid_input_of_the_table_is_accepted(site):
    valid, call, _, _ = SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(valid)


@pytest.mark.parametrize("site, case", TABLE)
def test_every_entry_point_refuses_what_is_not_an_array_of_finite_numbers(site, case):
    valid, call, _, _ = SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(_expected(site, case)):
            call(_fill(valid, BAD[case]))


def test_max_abs_diff_is_nan_for_nan_entries():
    assert math.isnan(max_abs_diff([[math.nan]], [[1.0]]))


@pytest.mark.skipif(np.dtype(np.longdouble).itemsize <= 8, reason="long double is float64 here")
def test_a_long_double_is_refused_not_rounded():
    with pytest.raises(ValueError, match="kraus must fit float64 or complex128"):
        Channel(np.full((1, 1, 1), np.longdouble(1) + np.longdouble(1e-18)))


@pytest.mark.parametrize(
    "kraus",
    [
        [[[True, 0.0], [0.0, 1.0]]],
        [[(0.0, 1.0), (np.bool_(True), 0.0)]],
        [np.eye(2), np.eye(2, dtype=bool)],
        [np.eye(2), [[1.0, 0.0], [0.0, False]]],
    ],
    ids=["python-bool", "numpy-bool-in-tuple", "bool-array", "bool-in-a-list-beside-an-array"],
)
def test_a_bool_among_numbers_is_refused_at_any_depth(kraus):
    with pytest.raises(ValueError, match="kraus must hold only numbers, got a bool"):
        Channel(kraus)


def test_python_integers_among_floats_are_numbers():
    assert np.array_equal(Channel([[[1, 0.0], [0, 1.0]]]).kraus, [np.eye(2)])


def test_object_arrays_are_refused_even_for_integers_beyond_int64():
    with pytest.raises(ValueError, match="kraus must hold only numbers"):
        Channel([[[2**70]]])


LEAVES = st.one_of(
    st.floats(-2, 2),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
    st.text(max_size=2),
    st.binary(max_size=2),
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
# nested lists of any depth, ragged ones included
NESTED = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=16)

BUILDERS = {
    "Channel": Channel,
    "DensityOperator": DensityOperator,
    "PQCInstance": lambda x: PQCInstance(x, E2, HALF),
    "BlochVector": BlochVector,
    "AlgebraSpec": lambda x: AlgebraSpec(((1, 1), (1, 1)), 0, x),
    "random_unitary": lambda x: random_unitary([1.0], [x]),
    "density_to_bloch": density_to_bloch,
    "bloch_to_ket": bloch_to_ket,
}


def _leaves(x):
    if isinstance(x, list):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


class TestIntakeFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(BUILDERS)), NESTED)
    @example("Channel", [[["1"]]])
    @example("Channel", [[[b"0.5"]]])
    @example("Channel", [[[None]]])
    @example("Channel", [[[True]]])
    @example("Channel", [[[True, 0.0], [0.0, 1.0]]])
    @example("BlochVector", [True, 0.0, 0.0])
    @example("BlochVector", [1j, 0.0, 0.0])
    @example("PQCInstance", [["1", 0.0]])
    @example("AlgebraSpec", [["1", 0.0], [0.0, 1.0]])
    def test_an_object_is_built_from_finite_numbers_or_the_input_is_refused(self, name, x):
        assume(not (name == "AlgebraSpec" and x is None))  # the identity basis change
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                built = BUILDERS[name](x)
            except (ValueError, PqclabError):
                return
        leaves = list(_leaves(x))
        assert not any(isinstance(v, (str, bytes)) or v is None for v in leaves)
        assert all(np.isfinite(v) for v in leaves)
        assert not any(isinstance(v, bool) for v in leaves)
        held = built if isinstance(built, np.ndarray) else next(
            getattr(built, f) for f in ("kraus", "mat", "states", "r", "basis_change")
            if hasattr(built, f)
        )
        assert held.dtype.kind in "fc" and np.isfinite(held).all()
