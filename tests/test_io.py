import json
import math

import numpy as np
import pytest

from pqclab.channels import channels_equal, depolarizing, from_kraus
from pqclab.condexp import collective_noise_channel_n2, condexp_channel
from pqclab import io as pqclab_io
from pqclab.io import (
    MAX_CHANNEL_DIM,
    NAMED_CHANNELS,
    RunReport,
    SpecFormatError,
    algebra_from_spec,
    algebra_to_spec,
    channel_from_spec,
    channel_to_spec,
    json_to_matrix,
    json_to_vector,
    matrix_to_json,
)
from pqclab.algebras import diagonal_algebra
from pqclab.rand import haar_unitary, random_ru_channel
from reference import matrices_equal


def _per_operator_json(stack):
    """The encoding of a Kraus stack one operator and one entry at a time."""
    return [[[[float(z.real), float(z.imag)] for z in row] for row in k] for k in stack]


class TestScalarEncoding:
    def test_matrix_to_json_encodes_any_rank(self):
        # rank 0: a complex number, a bare real and a bare int give one pair of floats
        assert matrix_to_json(1 + 2j) == [1.0, 2.0]
        assert matrix_to_json(3.0) == [3.0, 0.0]
        pair = matrix_to_json(2)
        assert pair == [2.0, 0.0] and all(type(x) is float for x in pair)
        # the sign of a zero survives in both parts
        assert [math.copysign(1.0, x) for x in matrix_to_json(complex(-0.0, -0.0))] == [-1, -1]
        # rank 1 and 2
        assert matrix_to_json(np.array([1j, -2.5])) == [[0.0, 1.0], [-2.5, 0.0]]
        assert matrix_to_json(np.eye(2)) == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        # rank 3: a Kraus stack, byte for byte as the per-operator encoding
        for ch in (collective_noise_channel_n2()[0], depolarizing(0.3, 3)):
            want = json.dumps(_per_operator_json(ch.kraus))
            assert json.dumps(matrix_to_json(ch.kraus)) == want
            assert json.dumps(channel_to_spec(ch)["kraus"]) == want

    def test_accepts_bare_reals_on_input(self):
        v = json_to_vector([1, [0, -1]])
        assert np.allclose(v, [1.0, -1j])

    def test_rejects_malformed_entries(self):
        with pytest.raises(SpecFormatError):
            json_to_vector([[1, 2, 3]])
        with pytest.raises(SpecFormatError):
            json_to_vector("nope")
        with pytest.raises(SpecFormatError):
            json_to_vector([])

    @pytest.mark.parametrize(
        "entry",
        [float("nan"), float("inf"), [0.0, float("-inf")], True, [1, False], 10**400, "1"],
        ids=["nan", "inf", "pair-minus-inf", "bool", "pair-bool", "huge-int", "string"],
    )
    def test_rejects_non_finite_and_non_numeric_entries(self, entry):
        with pytest.raises(SpecFormatError):
            json_to_vector([entry])
        with pytest.raises(SpecFormatError):
            json_to_matrix([[entry]])

    def test_matrix_rejects_ragged_rows(self):
        with pytest.raises(SpecFormatError):
            json_to_matrix([[1, 2], [3]])

    def test_vector_and_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(json_to_vector(matrix_to_json(v)), v)
        assert matrices_equal(json_to_matrix(matrix_to_json(m)), m)


class TestChannelSpecs:
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "depolarizing", "p": 0.5, "d": 3},
            {"kind": "named", "name": "dephasing_z"},
            {"kind": "named", "name": "identity", "d": 4},
            {"kind": "named", "name": "frame_n2"},
            {"kind": "condexp", "algebra": {"blocks": [[1, 1], [1, 1]]}},
            {
                "kind": "random_unitary",
                "probs": [0.5, 0.5],
                "unitaries": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]],
            },
        ],
    )
    def test_serialization_round_trip_preserves_the_channel(self, doc):
        ch = channel_from_spec(doc)
        again = channel_from_spec(json.loads(json.dumps(channel_to_spec(ch))))
        assert channels_equal(ch, again)

    def test_kraus_round_trip_for_random_channels(self):
        rng = np.random.default_rng(1)
        for d in (2, 3):
            ch = random_ru_channel(d, 3, rng)
            assert channels_equal(ch, channel_from_spec(channel_to_spec(ch)))

    def test_named_channels_are_what_they_say(self):
        assert channels_equal(channel_from_spec({"kind": "named", "name": "identity"}), from_kraus([np.eye(2)]))
        assert channels_equal(
            channel_from_spec({"kind": "named", "name": "completely_depolarizing", "d": 3}),
            depolarizing(1.0, 3),
        )
        assert channels_equal(
            channel_from_spec({"kind": "named", "name": "frame_n2"}),
            collective_noise_channel_n2()[0],
        )

    def test_condexp_kind_builds_the_expectation(self):
        doc = {"kind": "condexp", "algebra": {"blocks": [[1, 1], [1, 1]]}}
        assert channels_equal(channel_from_spec(doc), condexp_channel(diagonal_algebra(2)))

    def test_unknown_kind_and_name_fail_loudly(self):
        with pytest.raises(SpecFormatError):
            channel_from_spec({"kind": "teleport"})
        with pytest.raises(SpecFormatError):
            channel_from_spec({"kind": "named", "name": "wormhole"})
        with pytest.raises(SpecFormatError):
            channel_from_spec({"kind": "kraus", "kraus": []})
        with pytest.raises(SpecFormatError):
            channel_from_spec({"kraus": [[[1]]]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "depolarizing", "p": 0.5, "d": 2.9},
            {"kind": "depolarizing", "p": 0.5, "d": 2.0},
            {"kind": "depolarizing", "p": float("nan"), "d": 2},
            {"kind": "named", "name": "identity", "d": [2]},
            {"kind": "named", "name": "identity", "d": True},
            {"kind": "random_unitary", "probs": [float("nan"), 1.0],
             "unitaries": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]},
        ],
    )
    def test_rejects_non_integer_dimensions_and_non_finite_weights(self, doc):
        with pytest.raises(SpecFormatError):
            channel_from_spec(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "depolarizing", "p": 0.5, "d": MAX_CHANNEL_DIM + 1},
            {"kind": "depolarizing", "p": 0.5, "d": 10**9},
            {"kind": "depolarizing", "p": 0.5, "d": 0},
            {"kind": "named", "name": "completely_depolarizing", "d": MAX_CHANNEL_DIM + 1},
            {"kind": "named", "name": "identity", "d": 10**12},
            {"kind": "named", "name": "identity", "d": 0},
            {"kind": "named", "name": "identity", "d": -3},
        ],
    )
    def test_dimension_outside_the_cap_is_rejected_before_building(self, doc, monkeypatch):
        def build(*args):
            raise AssertionError("a channel was built")

        monkeypatch.setattr(pqclab_io, "depolarizing", build)
        monkeypatch.setattr(pqclab_io, "from_kraus", build)
        with pytest.raises(SpecFormatError, match="d must lie in"):
            channel_from_spec(doc)

    def test_dimension_at_the_cap_is_accepted(self, monkeypatch):
        built = []
        monkeypatch.setattr(pqclab_io, "depolarizing", lambda p, d: built.append(d))
        cap = MAX_CHANNEL_DIM
        channel_from_spec({"kind": "depolarizing", "p": 0.5, "d": cap})
        channel_from_spec({"kind": "named", "name": "completely_depolarizing", "d": cap})
        assert built == [cap, cap]
        assert channel_from_spec({"kind": "named", "name": "identity", "d": cap}).dim_in == cap

    def test_named_registry_is_stable(self):
        assert NAMED_CHANNELS == ("identity", "completely_depolarizing", "dephasing_z", "frame_n2")

    @pytest.mark.parametrize("name, d", [("dephasing_z", 3), ("dephasing_z", 32), ("frame_n2", 7)])
    def test_a_d_other_than_the_fixed_dimension_is_rejected(self, name, d):
        with pytest.raises(SpecFormatError, match="fixed dimension"):
            channel_from_spec({"kind": "named", "name": name, "d": d})

    @pytest.mark.parametrize("name, d", [("dephasing_z", 2), ("frame_n2", 4)])
    def test_the_fixed_dimension_is_accepted_as_d(self, name, d):
        ch = channel_from_spec({"kind": "named", "name": name, "d": d})
        assert (ch.dim_in, ch.dim_out) == (d, d)
        assert channels_equal(ch, channel_from_spec({"kind": "named", "name": name}))


class TestAlgebraSpecs:
    def test_minimal_document(self):
        alg = algebra_from_spec({"blocks": [[1, 1], [1, 1]]})
        assert alg.blocks == ((1, 1), (1, 1))
        assert alg.zero_dim == 0

    def test_round_trip_with_basis_change(self):
        u = haar_unitary(4, np.random.default_rng(3))
        alg = algebra_from_spec({"blocks": [[2, 2]], "basis_change": matrix_to_json(u)})
        again = algebra_from_spec(algebra_to_spec(alg))
        assert again.blocks == alg.blocks
        assert matrices_equal(again.basis_change, alg.basis_change)

    def test_rejects_malformed_documents(self):
        with pytest.raises(SpecFormatError):
            algebra_from_spec({"blocks": []})
        with pytest.raises(SpecFormatError):
            algebra_from_spec({"zero_dim": 1})
        with pytest.raises(SpecFormatError):
            algebra_from_spec({"blocks": [[0, 1]]})
        with pytest.raises(SpecFormatError):
            algebra_from_spec("not an object")

    @pytest.mark.parametrize(
        "doc",
        [
            {"blocks": [[1.7, 1]]},
            {"blocks": [[1.0, 1]]},
            {"blocks": [[True, 1]]},
            {"blocks": [[1, 1, 1]]},
            {"blocks": [[1, 1]], "zero_dim": [1]},
            {"blocks": [[1, 1]], "zero_dim": 1.5},
        ],
    )
    def test_integer_fields_are_parsed_strictly(self, doc):
        with pytest.raises(SpecFormatError):
            algebra_from_spec(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"blocks": [[3000, 1]]},
            {"blocks": [[MAX_CHANNEL_DIM + 1, 1]]},
            {"blocks": [[1, 1]], "zero_dim": 40},
        ],
    )
    def test_dimension_over_the_cap_is_rejected_before_building(self, doc, monkeypatch):
        def build(*args):
            raise AssertionError("an algebra was built")

        monkeypatch.setattr(pqclab_io, "AlgebraSpec", build)
        with pytest.raises(SpecFormatError, match=f"at most {MAX_CHANNEL_DIM}"):
            algebra_from_spec(doc)

    def test_dimension_at_the_cap_is_accepted(self):
        alg = algebra_from_spec({"blocks": [[MAX_CHANNEL_DIM, 1]]})
        assert alg.dim == MAX_CHANNEL_DIM


class TestRunReport:
    def test_stable_key_order_and_trailing_newline(self):
        report = RunReport("classify", 1e-9, {"tag": "Empty"})
        text = report.to_json()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc.keys()) == ["command", "tolerance", "result", "exit_code"]
        assert doc["exit_code"] == 0

    def test_deterministic(self):
        report = RunReport("demo-frame", 1e-9, {"x": 1.25})
        assert report.to_json() == report.to_json()
