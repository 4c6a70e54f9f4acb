import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pqclab
from pqclab import cli
from pqclab.algebras import trace_vector_onb
from pqclab.bloch import classify, sample_private_states
from pqclab.cli import ENV_TOL, MAX_SAMPLES, main
from pqclab.io import (
    MAX_CHANNEL_DIM,
    NAMED_CHANNELS,
    algebra_from_spec,
    channel_from_spec,
    matrix_to_json,
)
from pqclab.rand import haar_unitary
from golden_cases import CASES
from reference import D32_SHAPES, reference_sample_row

DEPHASING_DOC = {"kind": "named", "name": "dephasing_z"}
IDENTITY_DOC = {"kind": "named", "name": "identity"}
DELTA2_DOC = {"blocks": [[1, 1], [1, 1]]}
FULL2_DOC = {"blocks": [[1, 2]]}

AMP_DAMP_DOC = {
    "kind": "kraus",
    "kraus": [
        matrix_to_json(np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex)),
        matrix_to_json(np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)),
    ],
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_TOL, raising=False)


@pytest.fixture
def write_doc(tmp_path):
    def _write(name, doc):
        # bytes are written as they are, anything else as a JSON document
        path = tmp_path / name
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        return str(path)

    return _write


def _child_env() -> dict:
    """The environment for a child Python that imports pqclab from where
    this process found it, which pytest's pythonpath setting does not pass
    on through the environment."""
    src = str(Path(pqclab.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_identity_is_empty(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "classify", write_doc("ch.json", IDENTITY_DOC))
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "classify"
        assert doc["exit_code"] == 0
        assert doc["result"]["tag"] == "Empty"
        assert doc["result"]["T"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    def test_dephasing_great_circle_with_samples(self, capsys, write_doc, tmp_path):
        csv_path = tmp_path / "samples.csv"
        code, out, _ = run_cli(
            capsys,
            "classify",
            write_doc("ch.json", DEPHASING_DOC),
            "--samples",
            "4",
            "--out",
            str(csv_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["tag"] == "GreatCircle"
        assert doc["result"]["normal"] == [0.0, 0.0, 1.0]
        assert len(doc["result"]["samples"]) == 4
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "theta,rx,ry,rz,re0,im0,re1,im1"
        assert len(lines) == 5

    @pytest.mark.parametrize(
        "doc_in, extra",
        [
            (DEPHASING_DOC, []),
            (DEPHASING_DOC, ["--samples", "0"]),
            (IDENTITY_DOC, ["--samples", "8"]),
        ],
    )
    def test_out_without_sampled_states_writes_the_header(
        self, capsys, write_doc, tmp_path, doc_in, extra
    ):
        csv_path = tmp_path / "samples.csv"
        argv = ["classify", write_doc("ch.json", doc_in), *extra, "--out", str(csv_path)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["result"].get("samples", []) == []
        assert csv_path.read_text() == "theta,rx,ry,rz,re0,im0,re1,im1\n"

    def test_gz_out_path_is_written_as_plain_text(self, capsys, write_doc, tmp_path):
        path = write_doc("ch.json", DEPHASING_DOC)
        for name in ("x.csv", "x.csv.gz"):
            out = str(tmp_path / name)
            assert run_cli(capsys, "classify", path, "--samples", "8", "--out", out)[0] == 0
        assert (tmp_path / "x.csv.gz").read_bytes() == (tmp_path / "x.csv").read_bytes()

    def test_antipodal_states_are_reported(self, capsys, write_doc):
        doc_in = {
            "kind": "random_unitary",
            "probs": [0.5, 0.0, 0.25, 0.25],
            "unitaries": [
                [[1, 0], [0, 1]],
                [[0, 1], [1, 0]],
                [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
                [[1, 0], [0, -1]],
            ],
        }
        code, out, _ = run_cli(capsys, "classify", write_doc("ch.json", doc_in))
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["tag"] == "AntipodalPair"
        assert len(doc["result"]["states"]) == 2

    def test_non_unital_exits_2(self, capsys, write_doc):
        code, _, err = run_cli(capsys, "classify", write_doc("ch.json", AMP_DAMP_DOC))
        assert code == 2
        assert "NotUnital" in err

    def test_unreadable_json_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _, err = run_cli(capsys, "classify", str(bad))
        assert code == 1
        assert "error" in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "classify", str(tmp_path / "absent.json"))
        assert code == 1

    def test_samples_over_the_cap_exit_1_before_the_channel_is_loaded(
        self, capsys, write_doc, monkeypatch
    ):
        def fail(*_args):
            raise AssertionError("must not be called")

        monkeypatch.setattr(cli, "channel_from_spec", fail)
        monkeypatch.setattr(cli, "sample_private_states", fail)
        path = write_doc("ch.json", DEPHASING_DOC)
        code, out, err = run_cli(capsys, "classify", path, "--samples", str(MAX_SAMPLES + 1))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: --samples must lie in 0..{MAX_SAMPLES}")

    @pytest.mark.parametrize(
        "name", ["ch_completely_depolarizing", "ch_dephasing_z", "ch_pauli_mix", "ch_identity"]
    )
    @pytest.mark.parametrize("count", [1, 2000])
    def test_sample_rows_equal_the_per_sample_reference(self, name, count):
        doc = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
        kets = sample_private_states(classify(channel_from_spec(doc)), count)
        want = [reference_sample_row(k) for k in kets]
        # json.dumps tells -0.0 from 0.0, which == does not
        assert json.dumps(cli._sample_rows(kets)) == json.dumps(want)

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(DEPHASING_DOC)))
        code, out, _ = run_cli(capsys, "classify", "-")
        assert code == 0
        assert json.loads(out)["result"]["tag"] == "GreatCircle"


class TestCheckPqc:
    def _files(self, write_doc, states):
        ch = write_doc("ch.json", DEPHASING_DOC)
        st = write_doc("states.json", {"states": states})
        rho = write_doc("rho0.json", {"rho0": matrix_to_json(np.eye(2) / 2)})
        return ch, st, rho

    def test_equator_states_pass(self, capsys, write_doc):
        s = 1 / np.sqrt(2)
        ch, st, rho = self._files(write_doc, [[[s, 0], [s, 0]], [[s, 0], [0, s]]])
        code, out, _ = run_cli(capsys, "check-pqc", ch, st, rho)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["verdict"] is True
        assert max(doc["result"]["residuals"]) <= 1e-9

    def test_false_verdict_still_exits_0(self, capsys, write_doc):
        ch, st, rho = self._files(write_doc, [[[1, 0], [0, 0]]])
        code, out, _ = run_cli(capsys, "check-pqc", ch, st, rho)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["verdict"] is False
        assert abs(doc["result"]["residuals"][0] - 0.5) < 1e-12

    def test_dimension_mismatch_exits_2(self, capsys, write_doc):
        ch = write_doc("ch.json", DEPHASING_DOC)
        st = write_doc("states.json", {"states": [[1, 0, 0]]})
        rho = write_doc("rho0.json", {"rho0": matrix_to_json(np.eye(2) / 2)})
        code, _, err = run_cli(capsys, "check-pqc", ch, st, rho)
        assert code == 2
        assert "DimensionMismatch" in err

    def test_ragged_states_exit_2(self, capsys, write_doc):
        s = 1 / np.sqrt(2)
        ch, st, rho = self._files(write_doc, [[[s, 0], [s, 0]], [[1, 0], [0, 0], [0, 0]]])
        code, out, err = run_cli(capsys, "check-pqc", ch, st, rho)
        assert code == 2
        assert out == ""
        assert "DimensionMismatch" in err and "Traceback" not in err

    def test_d32_basis_is_private_and_strict_json(self, capsys, write_doc):
        u = haar_unitary(32, np.random.default_rng(32))
        alg_doc = {"blocks": [[1, 1]] * 32, "basis_change": matrix_to_json(u)}
        onb = trace_vector_onb(algebra_from_spec(alg_doc))
        ch = write_doc("ch.json", {"kind": "condexp", "algebra": alg_doc})
        st = write_doc("states.json", {"states": matrix_to_json(onb)})
        rho = write_doc("rho0.json", {"rho0": matrix_to_json(np.eye(32) / 32)})
        code, out, _ = run_cli(capsys, "check-pqc", ch, st, rho)
        assert code == 0
        result = json.loads(out, parse_constant=_reject_constant)["result"]
        assert result["verdict"] is True
        assert len(result["residuals"]) == 32 and max(result["residuals"]) <= 1e-12

    def test_residuals_follow_the_order_of_the_states(self, capsys, write_doc):
        s = 1 / np.sqrt(2)
        states = [[[1, 0], [0, 0]], [[s, 0], [s, 0]], [[0, 0], [1, 0]], [[s, 0], [0, s]]]
        ch, st, rho = self._files(write_doc, states)
        code, out, _ = run_cli(capsys, "check-pqc", ch, st, rho)
        assert code == 0
        residuals = json.loads(out)["result"]["residuals"]
        assert [r <= 1e-9 for r in residuals] == [False, True, False, True]

    def test_missing_states_key_exits_1(self, capsys, write_doc):
        ch = write_doc("ch.json", DEPHASING_DOC)
        st = write_doc("states.json", {"vectors": []})
        rho = write_doc("rho0.json", {"rho0": matrix_to_json(np.eye(2) / 2)})
        code, _, _ = run_cli(capsys, "check-pqc", ch, st, rho)
        assert code == 1


class TestTraceVectors:
    def test_onb_for_diagonals(self, capsys, write_doc):
        code, out, _ = run_cli(
            capsys, "trace-vectors", write_doc("alg.json", DELTA2_DOC), "--onb"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["result"]["onb"]) == 2
        assert doc["result"]["gram_deviation"] <= 1e-12
        assert doc["result"]["max_violation"] <= 1e-12

    def test_onb_reports_nonexistence(self, capsys, write_doc):
        code, out, _ = run_cli(
            capsys, "trace-vectors", write_doc("alg.json", FULL2_DOC), "--onb"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["no_trace_vectors"] is True
        assert doc["result"]["blocks"] == [[1, 2]]

    @pytest.mark.parametrize(
        "flag, doc",
        [("--check", {"vector": [[1, 0], [0, 0]]}), ("--rho0", {"rho0": [[0.5, 0], [0, 0.5]]})],
    )
    def test_onb_with_check_or_rho0_exits_1_before_reading_any_file(
        self, capsys, write_doc, monkeypatch, flag, doc
    ):
        def fail(*_args):
            raise AssertionError("must not be called")

        alg, other = write_doc("alg.json", DELTA2_DOC), write_doc("other.json", doc)
        monkeypatch.setattr(cli, "_parse", fail)
        code, out, err = run_cli(capsys, "trace-vectors", alg, "--onb", flag, other)
        assert code == 1
        assert out == ""
        assert err == "error: --onb takes neither --check nor --rho0\n"

    @pytest.mark.parametrize("blocks", D32_SHAPES)
    def test_onb_at_d32_is_strict_json(self, capsys, write_doc, blocks):
        u = haar_unitary(32, np.random.default_rng(len(blocks)))
        doc = {"blocks": [list(b) for b in blocks], "basis_change": matrix_to_json(u)}
        code, out, _ = run_cli(capsys, "trace-vectors", write_doc("alg.json", doc), "--onb")
        assert code == 0
        result = json.loads(out, parse_constant=_reject_constant)["result"]
        assert len(result["onb"]) == 32
        assert result["gram_deviation"] <= 1e-14
        assert result["max_violation"] <= 1e-12

    def test_bare_reports_existence(self, capsys, write_doc):
        code, out, _ = run_cli(capsys, "trace-vectors", write_doc("alg.json", DELTA2_DOC))
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["has_trace_vector"] is True
        assert doc["result"]["dim"] == 2

    def test_check_mode(self, capsys, write_doc):
        s = 1 / np.sqrt(2)
        vec_file = write_doc("v.json", {"vector": [[s, 0], [s, 0]]})
        code, out, _ = run_cli(
            capsys, "trace-vectors", write_doc("alg.json", DELTA2_DOC), "--check", vec_file
        )
        assert code == 0
        assert json.loads(out)["result"]["passed"] is True

    def test_check_mode_with_rho0(self, capsys, write_doc):
        vec_file = write_doc("v.json", {"vector": [[np.sqrt(0.75), 0], [0.5, 0]]})
        rho = write_doc("rho0.json", {"rho0": matrix_to_json(np.diag([0.75, 0.25]))})
        code, out, _ = run_cli(
            capsys,
            "trace-vectors",
            write_doc("alg.json", DELTA2_DOC),
            "--check",
            vec_file,
            "--rho0",
            rho,
        )
        assert code == 0
        assert json.loads(out)["result"]["passed"] is True

    @pytest.mark.parametrize(
        "modes, keys",
        [
            (["--check"], ["passed", "max_violation"]),
            (["--check", "--rho0"], ["passed", "max_violation"]),
            (["--rho0"], ["vector", "passed", "max_violation"]),
        ],
    )
    def test_check_and_wrt_reports_keep_their_key_order(self, capsys, write_doc, modes, keys):
        files = {
            "--check": write_doc("v.json", {"vector": [[1, 0], [0, 0]]}),
            "--rho0": write_doc("rho0.json", {"rho0": matrix_to_json(np.diag([0.75, 0.25]))}),
        }
        argv = [arg for mode in modes for arg in (mode, files[mode])]
        code, out, _ = run_cli(capsys, "trace-vectors", write_doc("alg.json", DELTA2_DOC), *argv)
        assert code == 0
        assert list(json.loads(out)["result"]) == keys

    def test_wrt_mode_constructs_a_vector(self, capsys, write_doc):
        rho = write_doc("rho0.json", {"rho0": matrix_to_json(np.diag([0.75, 0.25]))})
        code, out, _ = run_cli(
            capsys, "trace-vectors", write_doc("alg.json", DELTA2_DOC), "--rho0", rho
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["passed"] is True
        amps = [complex(re, im) for re, im in doc["result"]["vector"]]
        assert abs(abs(amps[0]) - np.sqrt(0.75)) < 1e-12

    def test_wrt_mode_infeasible_exits_2(self, capsys, write_doc):
        rho = write_doc("rho0.json", {"rho0": matrix_to_json(np.eye(2) / 2)})
        code, _, err = run_cli(
            capsys, "trace-vectors", write_doc("alg.json", FULL2_DOC), "--rho0", rho
        )
        assert code == 2
        assert "Infeasible" in err

    def test_wrt_mode_with_no_rank_above_the_cutoff_exits_2(self, capsys, write_doc):
        # both block weights of I/2 are 0.5, which --tol 0.5 does not count
        rho = write_doc("rho0.json", {"rho0": matrix_to_json(np.eye(2) / 2)})
        alg = write_doc("alg.json", DELTA2_DOC)
        code, out, err = run_cli(capsys, "trace-vectors", alg, "--rho0", rho, "--tol", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: Infeasible:")
        assert "rank cutoff" in err


class TestCondexp:
    def test_choi_emission(self, capsys, write_doc):
        code, out, _ = run_cli(
            capsys, "condexp", write_doc("alg.json", DELTA2_DOC), "--emit", "choi"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["result"]["choi"]) == 4

    def test_transfer_with_verification(self, capsys, write_doc):
        code, out, _ = run_cli(
            capsys,
            "condexp",
            write_doc("alg.json", DELTA2_DOC),
            "--emit",
            "transfer",
            "--verify",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["transfer"]["T"] == [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
        assert doc["result"]["axioms"]["passed"] is True

    def test_algebra_at_the_dimension_cap_is_accepted(self, capsys, write_doc):
        doc_in = {"blocks": [[MAX_CHANNEL_DIM, 1]]}
        code, out, _ = run_cli(capsys, "trace-vectors", write_doc("alg.json", doc_in))
        assert code == 0
        assert json.loads(out)["result"]["dim"] == MAX_CHANNEL_DIM

    def test_non_unital_algebra_exits_2(self, capsys, write_doc):
        doc_in = {"blocks": [[1, 1]], "zero_dim": 1}
        code, _, err = run_cli(capsys, "condexp", write_doc("alg.json", doc_in))
        assert code == 2
        assert "NotUnitalAlgebra" in err


class TestDemoFrame:
    def test_end_to_end(self, capsys):
        code, out, _ = run_cli(capsys, "demo-frame")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["axioms"]["passed"] is True
        assert abs(doc["result"]["triplet_weight"] - 0.75) <= 1e-9
        assert abs(doc["result"]["singlet_weight"] - 0.25) <= 1e-9
        assert doc["result"]["is_pqc"] is True


class TestTightTolerance:
    def test_unreachable_atol_in_classify_is_a_domain_error(self, capsys, write_doc):
        # exact Kraus entries load at any atol, but the antipodal kets carry
        # a rounding error of about 1e-17 in their overlap
        doc = {
            "kind": "kraus",
            "kraus": [[[0.5, 0.5], [0.5, -0.5]], [[0.5, -0.5], [[0, 0.5], [0, 0.5]]]],
        }
        code, out, err = run_cli(capsys, "classify", write_doc("ch.json", doc), "--tol", "1e-300")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ValueError: antipodal states must be orthogonal")

    # the maximally mixed state and the constructed vectors carry rounding
    # errors of about 1e-16, which no atol of 1e-300 accepts
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["demo-frame"], id="demo-frame"),
            pytest.param(["trace-vectors", {"blocks": [[1, 1]] * 7}, "--onb"], id="onb-seven-1x1"),
            pytest.param(
                ["trace-vectors", {"blocks": [[3, 1], [2, 2], [1, 1], [1, 1]]}, "--onb"],
                id="onb-mixed-blocks",
            ),
        ],
    )
    def test_unreachable_atol_exits_2_without_traceback(self, capsys, write_doc, argv):
        args = [write_doc("alg.json", a) if isinstance(a, dict) else a for a in argv]
        code, out, err = run_cli(capsys, *args, "--tol", "1e-300")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestPlumbing:
    @pytest.mark.parametrize("argv", [argv for _, argv in CASES], ids=[n for n, _ in CASES])
    def test_text_format(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == [f"command: {argv[0]}", "tolerance: 1e-09"]
        assert lines[-1] == "exit_code: 0" and out.endswith("\n")
        labels = [line.partition(":")[0] for line in lines[2:-1] if not line.startswith(" ")]
        _, out_json, _ = run_cli(capsys, *argv)
        assert labels == list(json.loads(out_json)["result"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-pqc", "-", "-", "{rho}"],
            ["trace-vectors", "-", "--rho0", "-"],
            ["trace-vectors", "{alg}", "--check", "-", "--rho0", "-"],
        ],
    )
    def test_stdin_for_two_inputs_exits_1_before_reading_any(
        self, capsys, write_doc, monkeypatch, argv
    ):
        def fail(*_args):
            raise AssertionError("must not be called")

        files = {"rho": write_doc("rho0.json", HALF2), "alg": write_doc("alg.json", DELTA2_DOC)}
        monkeypatch.setattr(cli, "_parse", fail)
        code, out, err = run_cli(capsys, *[a.format(**files) for a in argv])
        assert code == 1
        assert out == ""
        assert err == "error: - (stdin) may be given for at most one input\n"

    def test_env_tolerance_is_used(self, capsys, write_doc, monkeypatch):
        monkeypatch.setenv(ENV_TOL, "1e-6")
        code, out, _ = run_cli(capsys, "classify", write_doc("ch.json", IDENTITY_DOC))
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-6

    def test_flag_overrides_env(self, capsys, write_doc, monkeypatch):
        monkeypatch.setenv(ENV_TOL, "1e-6")
        code, out, _ = run_cli(
            capsys, "classify", write_doc("ch.json", IDENTITY_DOC), "--tol", "1e-12"
        )
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-12

    def test_unparsable_env_tolerance_exits_1(self, capsys, write_doc, monkeypatch):
        monkeypatch.setenv(ENV_TOL, "tiny")
        code, _, err = run_cli(capsys, "classify", write_doc("ch.json", IDENTITY_DOC))
        assert code == 1
        assert ENV_TOL in err

    def test_flag_overrides_an_unparsable_env_tolerance(self, capsys, write_doc, monkeypatch):
        monkeypatch.setenv(ENV_TOL, "tiny")
        code, out, _ = run_cli(
            capsys, "classify", write_doc("ch.json", IDENTITY_DOC), "--tol", "1e-9"
        )
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-9

    def test_output_is_deterministic(self, capsys, write_doc):
        path = write_doc("ch.json", DEPHASING_DOC)
        _, first, _ = run_cli(capsys, "classify", path, "--samples", "8")
        _, second, _ = run_cli(capsys, "classify", path, "--samples", "8")
        assert first == second

    def test_unknown_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["teleport"])
        assert exc.value.code == 2

    def test_module_entry_point(self, write_doc):
        path = write_doc("ch.json", IDENTITY_DOC)
        proc = subprocess.run(
            [sys.executable, "-m", "pqclab.cli", "classify", path],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["tag"] == "Empty"


REGEN_GOLDENS = Path(__file__).resolve().parent.parent / "scripts" / "regen_goldens.py"


@pytest.fixture
def regen():
    """scripts/regen_goldens.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("regen_goldens", REGEN_GOLDENS)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    return regen


class TestRegenGoldensCheck:
    def test_checked_in_goldens_do_not_drift(self, tmp_path):
        # as the README runs it, from a checkout where pqclab is not installed
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(REGEN_GOLDENS), "--check"],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "drift" not in proc.stdout
        assert proc.stdout.endswith("0 file(s) would change\n")

    def test_lists_every_drifted_golden_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        spec = importlib.util.spec_from_file_location("regen_goldens", REGEN_GOLDENS)
        regen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(regen)
        for path in regen.golden_cases.GOLDEN_DIR.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        drifted = [tmp_path / "classify_identity.json", tmp_path / "demo_frame.json"]
        for path in drifted:
            path.write_text("{}\n", encoding="utf-8")
        (tmp_path / "condexp_scalar2_choi.json").unlink()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(regen.golden_cases, "GOLDEN_DIR", tmp_path)

        assert regen.check() == 1
        listed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("drift")]
        expected = drifted + [tmp_path / "condexp_scalar2_choi.json"]
        assert sorted(listed) == sorted(f"drift {p}" for p in expected)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_says_whether_only_numbers_moved(self, regen, tmp_path, monkeypatch, capsys):
        for path in regen.golden_cases.GOLDEN_DIR.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        moved, reshaped = tmp_path / "check_pqc_equator.json", tmp_path / "demo_frame.json"
        doc = json.loads(moved.read_text(encoding="utf-8"))
        doc["result"]["residuals"][2] += 3e-17
        doc["result"]["residuals"][5] -= 1e-17
        moved.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        doc = json.loads(reshaped.read_text(encoding="utf-8"))
        doc["result"]["extra"] = 1
        reshaped.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        (tmp_path / "classify_identity.json").unlink()
        monkeypatch.setattr(regen.golden_cases, "GOLDEN_DIR", tmp_path)

        assert regen.check() == 1
        lines = capsys.readouterr().out.splitlines()
        said = {lines[i]: lines[i + 1] for i, line in enumerate(lines) if line.startswith("drift")}
        assert said == {
            f"drift {moved}": "  numbers only, largest |delta| 3e-17",
            f"drift {reshaped}": "  structure changed",
            f"drift {tmp_path / 'classify_identity.json'}": "  missing",
        }

    @pytest.mark.parametrize(
        "old, new, delta",
        [
            ({"a": [1, 2.5]}, {"a": [1, 2.0]}, 0.5),
            ([0.0, [1e-17]], [0.0, [-1e-17]], 2e-17),
            ({"a": 1, "b": 2}, {"b": 2, "a": 1}, None),
            ([1, 2], [1, 2, 3], None),
            ({"v": True}, {"v": False}, None),
            ({"v": True}, {"v": 1}, None),
            ({"s": "x"}, {"s": "y"}, None),
            ({"n": None}, {"n": None}, 0.0),
        ],
    )
    def test_largest_delta_reads_numbers_and_nothing_else(self, regen, old, new, delta):
        assert regen.largest_delta(old, new) == delta


NAN, INF = float("nan"), float("inf")
HALF2 = {"rho0": matrix_to_json(np.eye(2) / 2)}


DEEP = b"[" * 100_000 + b"]" * 100_000


class TestMalformedInput:
    # dict and bytes arguments are written to files and "{tmp}" in a string
    # names the test's directory; every case must exit 1 with an error line,
    # no traceback and nothing on stdout
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["check-pqc", DEPHASING_DOC, {"states": [[NAN, 0]]}, HALF2], id="nan-amplitude"),
            pytest.param(
                ["check-pqc", DEPHASING_DOC, {"states": [[[1, INF], 0]]}, HALF2], id="inf-amplitude"
            ),
            pytest.param(
                ["trace-vectors", DELTA2_DOC, "--check", {"vector": [NAN, 0]}], id="nan-vector"
            ),
            pytest.param(
                ["trace-vectors", DELTA2_DOC, "--rho0", {"rho0": [[-INF, 0], [0, 1]]}], id="inf-rho0"
            ),
            pytest.param(
                ["classify", {"kind": "random_unitary", "probs": [NAN, 1.0],
                              "unitaries": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]}],
                id="nan-probability",
            ),
            pytest.param(["trace-vectors", {"blocks": [[1.7, 1]]}], id="float-block"),
            pytest.param(["trace-vectors", {"blocks": [[True, 1]]}], id="bool-block"),
            pytest.param(["trace-vectors", {"blocks": [[1]]}], id="short-block"),
            pytest.param(["trace-vectors", {"blocks": [[1, 1]], "zero_dim": [1]}], id="list-zero-dim"),
            pytest.param(["trace-vectors", {"blocks": [[1, 1]], "zero_dim": 1.0}], id="float-zero-dim"),
            pytest.param(["classify", {"kind": "depolarizing", "p": 0.5, "d": 2.9}], id="float-d"),
            pytest.param(
                ["classify", {"kind": "named", "name": "identity", "d": [2]}], id="list-named-d"
            ),
            pytest.param(
                ["classify", {"kind": "named", "name": "identity", "d": True}], id="bool-named-d"
            ),
            pytest.param(["classify", DEPHASING_DOC, "--samples", "-1"], id="negative-samples"),
            pytest.param(["classify", {"kind": "depolarizing", "p": 0.5, "d": 10**9}], id="huge-d"),
            pytest.param(
                ["check-pqc", {"kind": "named", "name": "completely_depolarizing", "d": 33},
                 {"states": [[1, 0]]}, HALF2],
                id="named-d-over-cap",
            ),
            pytest.param(
                ["check-pqc", {"kind": "named", "name": "dephasing_z", "d": 32},
                 {"states": [[1, 0]]}, HALF2],
                id="named-d-not-the-fixed-dimension",
            ),
            pytest.param(["condexp", {"blocks": [[3000, 1]]}, "--verify"], id="huge-algebra"),
            pytest.param(["condexp", {"blocks": [[33, 1]]}, "--verify"], id="algebra-over-cap"),
            pytest.param(
                ["condexp", {"blocks": [[1, 1]], "zero_dim": 40}, "--verify"],
                id="zero-dim-over-cap",
            ),
            pytest.param(
                ["classify", DEPHASING_DOC, "--samples", "3", "--out", "{tmp}/absent/x.csv"],
                id="out-in-missing-directory",
            ),
            # an empty path is a path like any other, not an absent option
            pytest.param(["trace-vectors", DELTA2_DOC, "--check", ""], id="empty-check-path"),
            pytest.param(["trace-vectors", DELTA2_DOC, "--rho0", ""], id="empty-rho0-path"),
            pytest.param(["classify", DEPHASING_DOC, "--out", ""], id="empty-out-path"),
            pytest.param(["classify", b"\xff\xfe{}"], id="channel-not-utf8"),
            # nesting deeper than the JSON decoder's recursion limit
            pytest.param(["classify", DEEP], id="deeply-nested-document"),
            pytest.param(
                ["classify", b'{"kind": "kraus", "kraus": ' + DEEP + b"}"], id="deeply-nested-kraus"
            ),
        ],
    )
    def test_exits_1_without_traceback(self, capsys, write_doc, tmp_path, argv):
        args = [
            write_doc(f"doc{i}.json", a) if isinstance(a, (dict, bytes)) else a.format(tmp=tmp_path)
            for i, a in enumerate(argv)
        ]
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"blocks": [[-3, -11]]}, "block sizes must be positive"),
            ({"blocks": [[40, 1], [0, 1]]}, "block sizes must be positive"),
            ({"blocks": [[40, 1]], "zero_dim": -1}, "zero_dim must be nonnegative"),
        ],
    )
    def test_invalid_sizes_are_named_before_the_dimension_cap(self, capsys, write_doc, doc, message):
        code, out, err = run_cli(capsys, "condexp", write_doc("alg.json", doc), "--verify")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err
        assert "at most" not in err

    def test_out_dash_is_refused_before_any_input_is_read(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "classify", "absent.json", "--samples", "3", "--out", "-")
        assert code == 1
        assert out == ""
        # the refusal names --out, not the unreadable channel file
        assert "--out" in err and "absent.json" not in err
        assert list(tmp_path.iterdir()) == []


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


# Hostile documents: wrong types, NaN and +-inf, bools, ragged or empty
# arrays, at most 4 entries per array, and channel dimensions up to 40.
NUMBERS = st.one_of(
    st.sampled_from([0, 1, -1, 0.5, 2]), st.floats(), st.booleans(), st.none(), st.just("1")
)
ENTRIES = st.one_of(NUMBERS, st.lists(NUMBERS, max_size=3))
VECTORS = st.one_of(st.lists(ENTRIES, max_size=4), NUMBERS)
MATRICES = st.one_of(st.lists(VECTORS, max_size=4), NUMBERS)
DIMS = st.one_of(st.integers(-1, 40), NUMBERS)
# two blocks of at most 3 x 3 keep d <= 18, so a --verify stays fast
BLOCKS = st.lists(st.integers(-1, 3), min_size=2, max_size=2) | st.lists(NUMBERS, max_size=3)
ALGEBRA_DOCS = st.fixed_dictionaries(
    {"blocks": st.lists(BLOCKS, max_size=2) | NUMBERS},
    optional={"zero_dim": st.integers(-1, 2) | NUMBERS, "basis_change": MATRICES},
)
CHANNEL_DOCS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("kraus"), "kraus": st.lists(MATRICES, max_size=3)}),
    st.fixed_dictionaries(
        {
            "kind": st.just("random_unitary"),
            "probs": st.lists(NUMBERS, max_size=3),
            "unitaries": st.lists(MATRICES, max_size=3),
        }
    ),
    st.fixed_dictionaries({"kind": st.just("depolarizing"), "p": NUMBERS, "d": DIMS}),
    st.fixed_dictionaries(
        {"kind": st.just("named"), "name": st.sampled_from(NAMED_CHANNELS + ("none",))},
        optional={"d": DIMS},
    ),
    st.fixed_dictionaries({"kind": st.just("condexp"), "algebra": ALGEBRA_DOCS}),
    st.dictionaries(st.sampled_from(["kind", "kraus", "d"]), NUMBERS, max_size=2),
)
S = 1 / np.sqrt(2)
# valid documents, so that the generated command lines also reach exit 0 and 2
CHANNELS_OK = [DEPHASING_DOC, IDENTITY_DOC, AMP_DAMP_DOC, {"kind": "named", "name": "frame_n2"}]
ALGEBRAS_OK = [DELTA2_DOC, FULL2_DOC, {"blocks": [[1, 1]], "zero_dim": 1}, {"blocks": [[2, 1]]}]
STATES_OK = [{"states": [[[S, 0], [S, 0]]]}, {"states": [[1, 0]]}, {"states": [[1, 0, 0, 0]]}]
VECTORS_OK = [{"vector": [[S, 0], [S, 0]]}, {"vector": [1, 0]}]
RHO0_OK = [HALF2, {"rho0": matrix_to_json(np.diag([0.75, 0.25]))}]
RAW_FILES = [b"\xff\xfe{}", b"", b"{", b"[]", b"null", b'"x"', b"[[1, 0]]"]


def _contents(docs, valid):
    """The bytes of a valid document half of the time, else of a hostile one."""
    hostile = docs.map(lambda d: json.dumps(d).encode()) | st.sampled_from(RAW_FILES)
    return st.sampled_from(valid).map(lambda d: json.dumps(d).encode()) | hostile


@st.composite
def invocations(draw):
    """A command line for one of the five subcommands, with "{dir}" standing
    for the directory its files go to, and the bytes of those files."""
    files = {}

    def file(docs, valid):
        name = f"doc{len(files)}.json"
        files[name] = draw(_contents(docs, valid))
        return "{dir}/" + name

    command = draw(st.sampled_from(["classify", "check-pqc", "trace-vectors", "condexp",
                                    "demo-frame"]))
    argv = [command]
    if command == "classify":
        samples = draw(st.sampled_from(["0", "3", "-1"]))
        argv += [file(CHANNEL_DOCS, CHANNELS_OK), "--samples", samples]
        if draw(st.booleans()):
            argv += ["--out", draw(st.sampled_from(["{dir}/x.csv", "{dir}/absent/x.csv"]))]
    elif command == "check-pqc":
        argv += [
            file(CHANNEL_DOCS, CHANNELS_OK),
            file(st.fixed_dictionaries({"states": st.lists(VECTORS, max_size=3) | NUMBERS}),
                 STATES_OK),
            file(st.fixed_dictionaries({"rho0": MATRICES}), RHO0_OK),
        ]
    elif command == "trace-vectors":
        argv.append(file(ALGEBRA_DOCS, ALGEBRAS_OK))
        mode = draw(st.sampled_from(["bare", "onb", "check", "rho0", "both"]))
        if mode == "onb":
            argv.append("--onb")
        if mode in ("check", "both"):
            argv += ["--check", file(st.fixed_dictionaries({"vector": VECTORS}), VECTORS_OK)]
        if mode in ("rho0", "both"):
            argv += ["--rho0", file(st.fixed_dictionaries({"rho0": MATRICES}), RHO0_OK)]
    elif command == "condexp":
        argv += [file(ALGEBRA_DOCS, ALGEBRAS_OK), "--emit",
                 draw(st.sampled_from(["kraus", "choi", "transfer"]))]
        if draw(st.booleans()):
            argv.append("--verify")
    tol = draw(st.sampled_from([None, "1e-300", "0.5"]))
    if tol is not None:
        argv += ["--tol", tol]
    return argv, files


# documents with entries near the float max, which overflow in the checks
# that reject them; each of the three must exit 1 with one stderr line
HUGE_INVOCATIONS = [
    (
        ["check-pqc", "{dir}/doc0.json", "{dir}/doc1.json", "{dir}/doc2.json"],
        {
            "doc0.json": b'{"kind": "kraus", "kraus": [[[1]]]}',
            "doc1.json": b'{"states": [[1]]}',
            "doc2.json": b'{"rho0": [[1e308]]}',
        },
    ),
    (
        ["check-pqc", "{dir}/doc0.json", "{dir}/doc1.json", "{dir}/doc2.json"],
        {
            "doc0.json": b'{"kind": "kraus", "kraus": [[[1e200, 1e200], [1e200, -1e200]]]}',
            "doc1.json": json.dumps(STATES_OK[1]).encode(),
            "doc2.json": json.dumps(RHO0_OK[0]).encode(),
        },
    ),
    (
        ["condexp", "{dir}/doc0.json", "--verify"],
        {"doc0.json": b'{"blocks": [[1, 1], [1, 1]], "basis_change": [[1e200, 0], [0, 1e200]]}'},
    ),
]


class TestExitContract:
    @settings(max_examples=300, deadline=None)
    @given(invocations())
    @example(HUGE_INVOCATIONS[0])
    @example(HUGE_INVOCATIONS[1])
    @example(HUGE_INVOCATIONS[2])
    def test_any_input_exits_0_1_or_2_with_strict_json_or_nothing(self, invocation):
        argv, files = invocation
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in files.items():
                Path(tmp, name).write_bytes(data)
            with redirect_stdout(out), redirect_stderr(err):
                code = main([a.format(dir=tmp) for a in argv])
        assert code in (0, 1, 2)
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        else:
            assert out.getvalue() == ""
            # one error line, as docs/file_formats.md says
            assert err.getvalue().startswith("error:")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")

    @pytest.mark.parametrize("invocation", HUGE_INVOCATIONS, ids=["rho0", "kraus", "basis-change"])
    def test_entries_near_the_float_max_exit_1_with_one_error_line(self, tmp_path, invocation):
        argv, files = invocation
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        argv = [a.format(dir=tmp_path) for a in argv]
        # a child process that makes RuntimeWarning an error, as this
        # suite's filterwarnings does in-process
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "pqclab.cli", *argv],
            capture_output=True, text=True, env=_child_env(), check=False,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: bad ") and proc.stderr.count("\n") == 1
