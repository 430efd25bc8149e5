"""Clean vs faulty specs are never cache-aliased in the serving stack.

Boots one real server (random port, background thread, tiny
fast-to-train model) and proves — live over HTTP — that a clean spec and
a perturbed spec never share warm emulators, warm engines, or results:
the no-aliasing acceptance criterion of the fault-injection refactor,
asserted at the wire.
"""

import numpy as np
import pytest

from repro.api import EmulationSpec
from repro.core.zoo import GeniexZoo
from repro.serve.client import ServeClient, ServerError
from repro.serve.registry import ModelRegistry
from repro.serve.server import EmulationServer, ServerThread

TINY = EmulationSpec.from_dict({
    "engine": "geniex",
    "xbar": {"rows": 4, "cols": 4},
    "emulator": {"sampling": {"n_g_matrices": 3, "n_v_per_g": 4,
                              "seed": 0},
                 "training": {"hidden": 8, "epochs": 2, "batch_size": 8,
                              "seed": 0}},
})
FAULTS = {"seed": 5, "variation": {"sigma": 0.2},
          "stuck": {"p_on": 0.05, "p_off": 0.05}}


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    zoo = GeniexZoo(cache_dir=str(tmp_path_factory.mktemp("zoo")))
    registry = ModelRegistry(zoo)
    server = EmulationServer(registry, max_batch_rows=16)
    with ServerThread(server) as handle:
        yield handle, registry


@pytest.fixture
def client(served):
    handle, _ = served
    with ServeClient("127.0.0.1", handle.port, timeout=120) as c:
        yield c


class TestModelTierSeparation:
    def test_clean_and_faulty_specs_warm_distinct_models(self, served,
                                                         client):
        _, registry = served
        before = client.metrics()["registry"]["models"]["size"]
        client.load_model(spec=TINY)
        client.load_model(spec=TINY.evolve(nonideality=FAULTS))
        after = client.metrics()["registry"]["models"]["size"]
        assert after == before + 2, \
            "a faulty crossbar aliased a clean one in the model tier"
        # Re-loading either is a pure cache hit (no third entry).
        client.load_model(spec=TINY.evolve(nonideality=FAULTS))
        assert client.metrics()["registry"]["models"]["size"] == after


class TestCrossbarTierSeparation:
    def test_faulty_spec_perturbs_explicit_conductances(self, served,
                                                        client):
        """The crossbar tier serves the *spec's* physics: a fault
        composition perturbs the submitted matrix before the emulator is
        bound, so a faulty spec never silently answers clean — and the
        two registrations never share a key."""
        rng = np.random.default_rng(7)
        g = rng.uniform(1.7e-6, 1e-5, size=(4, 4))
        v = rng.uniform(0.0, 0.25, size=(3, 4))
        clean_key = client.register_crossbar(conductances=g, spec=TINY)
        fault_key = client.register_crossbar(
            conductances=g, spec=TINY.evolve(nonideality=FAULTS))
        assert clean_key != fault_key
        y_clean = client.predict_currents(v, crossbar_key=clean_key)
        y_fault = client.predict_currents(v, crossbar_key=fault_key)
        assert not np.array_equal(y_clean, y_fault), \
            "faulty crossbar served clean currents"
        # Determinism: re-registering reuses the same perturbed matrix.
        again = client.register_crossbar(
            conductances=g, spec=TINY.evolve(nonideality=FAULTS))
        assert again == fault_key
        np.testing.assert_array_equal(
            client.predict_currents(v, crossbar_key=again), y_fault)


class TestEngineTierSeparation:
    def exact_spec(self, nonideality=None):
        spec = TINY.evolve(engine="exact",
                           sim={"weight_bits": 8, "weight_frac_bits": 5,
                                "activation_bits": 8,
                                "activation_frac_bits": 5})
        if nonideality is not None:
            spec = spec.evolve(nonideality=nonideality)
        return spec

    def test_weights_keys_and_results_separate(self, served, client):
        _, registry = served
        rng = np.random.default_rng(3)
        weights = rng.uniform(-0.5, 0.5, size=(6, 5))
        x = rng.uniform(-0.5, 0.5, size=(4, 6))

        clean_spec = self.exact_spec()
        fault_spec = self.exact_spec(FAULTS)
        clean_key = client.register_weights(spec=clean_spec,
                                            weights=weights)
        fault_key = client.register_weights(spec=fault_spec,
                                            weights=weights)
        assert clean_key != fault_key, \
            "a faulty engine aliased a clean one in the engine tier"
        # The wire-visible keys are exactly the registry's spec digests.
        assert clean_key == registry.serving_spec(
            clean_spec).weights_key(weights)
        assert fault_key == registry.serving_spec(
            fault_spec).weights_key(weights)

        y_clean = client.matmul(x, weights_key=clean_key)
        y_fault = client.matmul(x, weights_key=fault_key)
        assert y_clean.shape == y_fault.shape == (4, 5)
        assert not np.array_equal(y_clean, y_fault), \
            "faulty engine served clean results"

        # Identity node = clean engine: same key, warm hit, same bytes.
        ident_key = client.register_weights(
            spec=self.exact_spec({"seed": 9}), weights=weights)
        assert ident_key == clean_key
        np.testing.assert_array_equal(
            client.matmul(x, weights_key=ident_key), y_clean)

    def test_faulty_spec_round_trips_strictly(self, client):
        """Unknown fault fields are rejected at the wire with the dotted
        path — a typo cannot silently serve a clean engine."""
        bad = TINY.evolve(engine="exact").to_dict()
        bad["nonideality"] = {"variaton": {"sigma": 0.2}}
        with pytest.raises(ServerError, match="variaton"):
            client.register_weights(spec=bad, weights=np.eye(3))
