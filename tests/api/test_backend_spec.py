"""RuntimeSpec.backend: round-trip, digest neutrality, serving policy.

The array backend of the compiled fused kernel is an execution knob with
bit-identical outputs across every value — so it must serialise with the
spec, validate strictly, and never participate in ``key()`` /
``model_key()`` / warm-engine digests. The removed ``numba``/``torch``
backends still load from stored specs, with a warning, as ``numpy``.
"""

import contextlib

import pytest

from repro.api import EmulationSpec
from repro.api.spec import RuntimeSpec
from repro.errors import ConfigError
from repro.serve.registry import ModelRegistry


class TestRoundTrip:
    @pytest.mark.parametrize("backend",
                             [None, "numpy", "numba", "torch", "interp"])
    def test_json_round_trip(self, backend):
        removed = backend in ("numba", "torch")
        with pytest.warns(DeprecationWarning, match=backend) if removed \
                else contextlib.nullcontext():
            spec = EmulationSpec(engine="exact",
                                 runtime=RuntimeSpec(backend=backend))
        restored = EmulationSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.runtime.backend == ("numpy" if removed
                                            else backend)

    def test_evolve_sets_backend(self):
        spec = EmulationSpec(engine="exact")
        assert spec.evolve(runtime={"backend": "numpy"}) \
            .runtime.backend == "numpy"


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown array backend"):
            RuntimeSpec(backend="cuda")

    def test_unknown_backend_cites_dotted_path(self):
        with pytest.raises(ConfigError, match="invalid spec.runtime"):
            EmulationSpec.from_dict(
                {"engine": "exact", "runtime": {"backend": "cuda"}})


class TestDigestNeutrality:
    """Backends are bit-identical, so keys must not fork on them."""

    @pytest.mark.parametrize("backend", ["numpy", "numba", "torch", "interp"])
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_keys_unchanged(self, backend):
        base = EmulationSpec(engine="exact")
        evolved = base.evolve(runtime={"backend": backend})
        assert evolved.key() == base.key()
        assert evolved.model_key() == base.model_key()


class TestServingPolicy:
    def test_serving_spec_applies_registry_backend(self):
        registry = ModelRegistry(backend="numpy")
        spec = registry.serving_spec(EmulationSpec(engine="exact"))
        assert spec.runtime.backend == "numpy"

    def test_serving_spec_default_backend_is_none(self):
        registry = ModelRegistry()
        spec = registry.serving_spec(
            EmulationSpec(engine="exact",
                          runtime=RuntimeSpec(backend="interp")))
        # runtime is server policy: a client backend choice is replaced.
        assert spec.runtime.backend is None

    def test_serving_keys_stable_across_backends(self):
        plain = ModelRegistry()
        numpyb = ModelRegistry(backend="numpy")
        client = EmulationSpec(engine="exact")
        assert plain.serving_spec(client).key() \
            == numpyb.serving_spec(client).key()
