import re
from pathlib import Path

import pqclab
from pqclab import algebras, bloch, channels, condexp, errors, linalg

LAYERS = (linalg, channels, bloch, algebras, condexp, errors)

PUBLIC_NAMES = {
    "__version__",
    # linalg
    "CMatrix", "ToleranceConfig", "DEFAULT_TOL", "partial_trace", "nullspace_basis", "is_psd",
    "max_abs_diff",
    # channels
    "Channel", "DensityOperator", "from_kraus", "random_unitary", "depolarizing", "convex_mix",
    "apply", "choi", "kraus_from_choi", "superoperator", "compose", "is_unital", "channels_equal",
    # bloch
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "PAULIS", "BlochVector", "PauliTransfer", "PrivateStateSet",
    "Empty", "AntipodalPair", "GreatCircle", "AllStates", "density_to_bloch", "bloch_to_density",
    "bloch_to_ket", "transfer", "classify", "sample_private_states",
    # algebras
    "AlgebraSpec", "TraceVectorReport", "diagonal_algebra", "scalar_algebra",
    "full_matrix_algebra", "canonical_basis", "project_onto_algebra", "is_trace_vector",
    "is_separating", "has_trace_vector", "max_entangled_trace_vector", "trace_vector_onb",
    "trace_vector_wrt",
    # condexp
    "PQCInstance", "AxiomReport", "PqcReport", "condexp_channel", "verify_condexp_axioms",
    "is_pqc", "private_states_certificate", "collective_noise_channel_n2",
    # errors
    "PqclabError", "DimensionMismatch", "NotTracePreserving", "NotAProbabilityDistribution",
    "NotUnitary", "BlochVectorTooLong", "NotUnital", "NotUnitVector", "NotUnitalAlgebra",
    "NoTraceVectors", "Rho0NotInAlgebra", "Infeasible",
}

README = Path(__file__).resolve().parent.parent / "README.md"


class TestPublicSurface:
    def test_the_package_exports_exactly_the_public_names(self):
        assert len(PUBLIC_NAMES) == 71
        assert len(pqclab.__all__) == len(set(pqclab.__all__))
        assert set(pqclab.__all__) == PUBLIC_NAMES

    def test_each_layer_name_has_one_owner_and_resolves_to_it(self):
        owners = [(name, layer) for layer in LAYERS for name in layer.__all__]
        names = [name for name, _ in owners]
        assert len(names) == len(set(names))
        assert set(names) == PUBLIC_NAMES - {"__version__"}
        for name, layer in owners:
            assert getattr(pqclab, name) is getattr(layer, name), name


class TestReadme:
    def test_the_library_tour_runs(self):
        blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], str(README), "exec"), {})
