"""The wire names an emulation by ``"spec"`` alone.

* The spec form of every body the retired flat ``model``/``engine``/
  ``sim`` format could express returns the literal keys that flat body
  was answered with: retiring the format moved no key.
* A body carrying ``model``, ``engine`` or ``sim`` is a 400 naming
  ``"spec"`` on each of the six emulation endpoints, and builds nothing.
* A warm-object key of the wrong JSON type is a 400, not a 404 lookup of
  its string form.
* A malformed request array is refused before an inline spec is trained,
  programmed or prepared.
"""

import numpy as np
import pytest

from repro.api.spec import EmulationSpec
from repro.core.zoo import GeniexZoo
from repro.serve.client import ServeClient, ServerError
from repro.serve.registry import ModelRegistry
from repro.serve.server import EmulationServer, ServerThread

SAMPLING = {"n_g_matrices": 3, "n_v_per_g": 4, "seed": 0}
TRAINING = {"hidden": 8, "epochs": 2, "batch_size": 8, "seed": 0}
CLEAN = EmulationSpec.from_dict({
    "engine": "geniex", "xbar": {"rows": 4, "cols": 4},
    "emulator": {"sampling": SAMPLING, "training": TRAINING}})
FAULTY = CLEAN.evolve(nonideality={"seed": 3, "stuck": {"p_on": 0.05}})
G = 2e-6 + 5e-7 * np.arange(16.0).reshape(4, 4)
W = (np.arange(16.0).reshape(4, 4) - 7.5) / 16
V = np.full((2, 4), 0.1)

#: Keys the server answered for the flat ``{"model": {"rows": 4, "cols":
#: 4, "sampling": SAMPLING, "training": TRAINING}}`` body (plus
#: ``"nonideality"`` for ``faulty``; plus ``"engine"``/``"sim"`` for the
#: weights keys) before the flat format was retired.
FLAT_KEYS = {
    "clean": {
        "model_key": "d8f9b52f1b4182f4b1b6",
        "crossbar_key": "xb-1302f2a004612c8d85a1",
        "weights_key_geniex": "eng-9b9cef173ad93f613aeb",
        "weights_key_exact": "eng-04b64702085697831906",
        "weights_key_exact_sim": "eng-f257ac94076b09c656e6",
    },
    "faulty": {
        "model_key": "c843edf4aee1898c4092",
        "crossbar_key": "xb-8366d0c7f5f624afe614",
        "weights_key_geniex": "eng-830ae572a1eee614b7ff",
        "weights_key_exact": "eng-66ffb4be7fd28efc8f41",
        "weights_key_exact_sim": "eng-b6854103e974151743ee",
    },
}

#: A body per emulation endpoint, naming CLEAN by spec.
SPEC_BODIES = {
    "/v1/models": {},
    "/v1/crossbars": {"conductances": G.tolist()},
    "/v1/predict_fr": {"conductances": G.tolist(), "voltages": V.tolist()},
    "/v1/predict_currents": {"conductances": G.tolist(),
                             "voltages": V.tolist()},
    "/v1/weights": {"weights": W.tolist()},
    "/v1/matmul": {"weights": W.tolist(), "x": V.tolist()},
}
FLAT_MODEL = {"rows": 4, "cols": 4, "sampling": SAMPLING,
              "training": TRAINING}

#: The request field each warm-object key is read from, by endpoint.
KEY_FIELDS = [
    ("/v1/crossbars", "crossbar_key", {}),
    ("/v1/predict_fr", "crossbar_key", {"voltages": V.tolist()}),
    ("/v1/predict_currents", "crossbar_key", {"voltages": V.tolist()}),
    ("/v1/weights", "weights_key", {}),
    ("/v1/matmul", "weights_key", {"x": V.tolist()}),
    ("/v1/mitigated_predict", "mitigated_key", {"x": V.tolist()}),
    ("/v1/net_predict", "net_key", {"x": V.tolist()}),
]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    zoo = GeniexZoo(cache_dir=str(tmp_path_factory.mktemp("zoo")))
    server = EmulationServer(ModelRegistry(zoo))
    with ServerThread(server) as handle:
        yield handle, server


@pytest.fixture
def client(served):
    handle, _ = served
    with ServeClient("127.0.0.1", handle.port, timeout=300) as c:
        yield c


def misses(server) -> dict:
    stats = server.registry.stats()
    return {tier: stats[tier]["misses"]
            for tier in ("models", "crossbars", "engines")}


def status_of(client, path: str, body: dict) -> tuple:
    try:
        client._request("POST", path, body)
    except ServerError as exc:
        return exc.status, exc.message
    return 200, ""


class TestNoKeyMoves:
    @pytest.mark.parametrize("name,spec", [("clean", CLEAN),
                                           ("faulty", FAULTY)])
    def test_spec_form_returns_the_flat_keys(self, client, name, spec):
        assert client.load_model(spec)["model_key"] == \
            FLAT_KEYS[name]["model_key"]
        assert client.register_crossbar(spec, G) == \
            FLAT_KEYS[name]["crossbar_key"]
        assert client.register_weights(spec, W) == \
            FLAT_KEYS[name]["weights_key_geniex"]
        assert client.register_weights(spec.evolve(engine="exact"), W) == \
            FLAT_KEYS[name]["weights_key_exact"]
        assert client.register_weights(
            spec.evolve(engine="exact", sim={"adc_bits": 8}), W) == \
            FLAT_KEYS[name]["weights_key_exact_sim"]


class TestFlatBodies:
    @pytest.mark.parametrize("path", sorted(SPEC_BODIES))
    def test_flat_model_body_is_400_naming_spec(self, client, served,
                                                path):
        _, server = served
        before = misses(server)
        body = {"model": FLAT_MODEL, "engine": "exact",
                "sim": {"adc_bits": 3}, **SPEC_BODIES[path]}
        status, message = status_of(client, path, body)
        assert status == 400 and "\"spec\"" in message, message
        assert misses(server) == before

    @pytest.mark.parametrize("field,value", [
        ("model", FLAT_MODEL), ("engine", "exact"),
        ("sim", {"adc_bits": 3})])
    @pytest.mark.parametrize("path", sorted(SPEC_BODIES))
    def test_flat_field_beside_a_spec_is_400(self, client, path, field,
                                             value):
        body = {"spec": CLEAN.to_dict(), field: value, **SPEC_BODIES[path]}
        status, message = status_of(client, path, body)
        assert status == 400 and field in message, message


class TestKeyFieldTypes:
    @pytest.mark.parametrize("value", [5, None, "", []])
    @pytest.mark.parametrize("path,field,extra", KEY_FIELDS,
                             ids=[f"{path}:{field}"
                                  for path, field, _ in KEY_FIELDS])
    def test_non_string_key_is_400(self, client, path, field, extra,
                                   value):
        status, message = status_of(client, path, {field: value, **extra})
        assert status == 400 and field in message, (status, message)


class TestArraysBeforeResolve:
    @pytest.mark.parametrize("path,field,bad", [
        ("/v1/predict_currents", "voltages", [["0.1"] * 4]),
        ("/v1/predict_fr", "voltages", [[0.1, None, 0.1, 0.1]]),
        ("/v1/matmul", "x", [[True] * 4]),
        ("/v1/matmul", "x", [[0.1, 0.2], [0.3]]),
    ])
    def test_malformed_array_builds_nothing(self, client, served, path,
                                            field, bad):
        """A fresh inline spec with a malformed request array is refused
        before the emulator is trained or the matrix programmed."""
        _, server = served
        fresh = CLEAN.evolve(emulator={"training": {"seed": 11}})
        before = misses(server)
        body = {"spec": fresh.to_dict(), **SPEC_BODIES[path], field: bad}
        status, message = status_of(client, path, body)
        assert status == 400 and field in message, message
        assert misses(server) == before
