"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``characterize`` — NF statistics of a crossbar configuration;
* ``train-geniex`` — characterise + fit a GENIEx model (cached in the zoo);
* ``spec`` — print, validate or derive a declarative emulation spec;
* ``fig`` — regenerate one of the paper's figures/tables from the terminal;
* ``mitigate`` — run a spec's mitigation recipe (noise-injection training
  and/or output calibration) against its faulty engine on a dataset;
* ``serve`` — run the async emulation service with dynamic microbatching;
* ``obs`` — per-stage latency report from a server's recent traces.

``--log-level`` (or ``REPRO_LOG_LEVEL``) tunes the stdlib logging the
commands emit under the ``repro.*`` logger hierarchy.

The canonical description of an emulation setup is
:class:`repro.api.spec.EmulationSpec`; ``characterize``, ``train-geniex``
and ``fig`` accept ``--spec file.json`` / ``--preset NAME`` plus
``--set path=value`` overrides, and the classic loose flags (``--rows``,
``--r-on``, ...) are lowered into spec overrides — so the CLI, the HTTP
service and the in-process API resolve identical setups identically.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


class _TrackedAction(argparse.Action):
    """Store the value and remember that the flag was given explicitly.

    With ``--spec``/``--preset`` the spec provides the baseline and only
    explicitly-typed flags override it; without one, argparse defaults
    reproduce the historical behaviour exactly.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        vars(namespace).setdefault("_explicit", set()).add(self.dest)


def _explicit(args) -> set:
    return getattr(args, "_explicit", set())


def _add_crossbar_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rows", type=int, default=32,
                        action=_TrackedAction)
    parser.add_argument("--cols", type=int, default=None,
                        action=_TrackedAction, help="defaults to --rows")
    parser.add_argument("--r-on", type=float, default=100e3,
                        action=_TrackedAction, help="ON resistance in Ohm")
    parser.add_argument("--onoff", type=float, default=6.0,
                        action=_TrackedAction,
                        help="conductance ON/OFF ratio")
    parser.add_argument("--vdd", type=float, default=0.25,
                        action=_TrackedAction, help="supply voltage in V")


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", default=None, metavar="FILE",
                        help="EmulationSpec JSON file (see `repro spec`)")
    parser.add_argument("--preset", default=None, metavar="NAME",
                        help="named spec preset (see `repro spec --list`)")
    parser.add_argument("--set", dest="spec_set", action="append",
                        default=[], metavar="PATH=VALUE",
                        help="spec override, e.g. xbar.rows=32 "
                             "(repeatable; values parse as JSON)")


def _load_spec(args, default=None):
    """Resolve ``--spec`` / ``--preset`` / ``--set`` into a spec.

    Returns ``None`` when neither a file, a preset nor a ``default`` was
    given — callers then take their historical loose-flag path.
    """
    from repro.api import EmulationSpec, get_preset
    from repro.errors import ConfigError

    if args.spec and args.preset:
        raise ConfigError("pass either --spec or --preset, not both")
    if args.spec:
        with open(args.spec) as handle:
            spec = EmulationSpec.from_json(handle.read())
    elif args.preset:
        spec = get_preset(args.preset)
    elif default is not None:
        spec = default
    else:
        if args.spec_set:
            raise ConfigError("--set requires --spec or --preset")
        return None
    overrides = {}
    for item in args.spec_set:
        path, sep, raw = item.partition("=")
        if not sep or not path.strip():
            raise ConfigError(f"--set expects PATH=VALUE, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings stay strings
        overrides[path.strip()] = value
    return spec.evolve(**overrides) if overrides else spec


def _crossbar_spec_overrides(args, explicit_only: bool) -> dict:
    """Lower the loose crossbar flags into ``xbar.*`` spec overrides.

    On the loose-flag path (no spec; ``explicit_only=False``) ``--cols``
    defaults to ``--rows``, reproducing the historical behaviour. With a
    spec as the baseline only explicitly-typed flags override it — an
    explicit ``--rows`` changes rows alone and leaves the spec's cols.
    """
    explicit = _explicit(args)
    keep = (lambda name: name in explicit) if explicit_only \
        else (lambda name: True)
    overrides = {}
    if keep("rows"):
        overrides["xbar.rows"] = args.rows
    if args.cols is not None and keep("cols"):
        overrides["xbar.cols"] = args.cols
    elif not explicit_only:
        overrides["xbar.cols"] = args.rows
    if keep("r_on"):
        overrides["xbar.r_on_ohm"] = args.r_on
    if keep("onoff"):
        overrides["xbar.onoff_ratio"] = args.onoff
    if keep("vdd"):
        overrides["xbar.v_supply_v"] = args.vdd
    return overrides


_UNRESOLVED = object()


def _crossbar_from_args(args, spec=_UNRESOLVED):
    """Crossbar config from spec/preset (if given) + loose-flag overrides.

    Callers that already resolved the spec pass it in so ``--spec`` files
    are read (and ``--set`` overrides applied) exactly once.
    """
    if spec is _UNRESOLVED:
        spec = _load_spec(args)
    if spec is None:
        from repro.api import EmulationSpec
        return EmulationSpec().evolve(
            **_crossbar_spec_overrides(args, explicit_only=False)) \
            .xbar.to_config()
    overrides = _crossbar_spec_overrides(args, explicit_only=True)
    if overrides:
        spec = spec.evolve(**overrides)
    return spec.xbar.to_config()


def _cmd_characterize(args) -> int:
    from repro.core.dataset import label_groups
    from repro.core.metrics import nonideality_factor, valid_mask
    from repro.core.sampling import SamplingSpec, VgSampler

    config = _crossbar_from_args(args)
    spec = SamplingSpec(n_g_matrices=args.samples, n_v_per_g=8,
                        seed=args.seed)
    i_ideal, (i_real,) = label_groups(
        config, *VgSampler(config, spec).sample())
    nf = nonideality_factor(i_ideal, i_real)[valid_mask(i_ideal)]
    print(f"crossbar {config.rows}x{config.cols}  R_on "
          f"{config.r_on_ohm / 1e3:g}k  ON/OFF {config.onoff_ratio:g}  "
          f"Vdd {config.v_supply_v:g} V")
    print(f"NF over {nf.size} column readouts: "
          f"mean {nf.mean():+.4f}  median {np.median(nf):+.4f}  "
          f"q1 {np.percentile(nf, 25):+.4f}  "
          f"q3 {np.percentile(nf, 75):+.4f}")
    return 0


def _cmd_train_geniex(args) -> int:
    from dataclasses import replace

    from repro.core.sampling import SamplingSpec
    from repro.core.trainer import TrainSpec
    from repro.core.zoo import GeniexZoo

    spec = _load_spec(args)
    config = _crossbar_from_args(args, spec=spec)
    explicit = _explicit(args)
    if spec is None:
        sampling = SamplingSpec(n_g_matrices=args.samples, n_v_per_g=20,
                                seed=args.seed)
        training = TrainSpec(hidden=args.hidden, hidden_layers=args.layers,
                             epochs=args.epochs, batch_size=128, lr=2e-3,
                             patience=max(10, args.epochs // 4),
                             seed=args.seed)
        mode = "full"
    else:
        # The spec is the baseline; explicitly-typed flags override it.
        sampling, training = spec.emulator.sampling, spec.emulator.training
        mode = spec.emulator.mode
        if "samples" in explicit:
            sampling = replace(sampling, n_g_matrices=args.samples)
        if "seed" in explicit:
            sampling = replace(sampling, seed=args.seed)
            training = replace(training, seed=args.seed)
        if "hidden" in explicit:
            training = replace(training, hidden=args.hidden)
        if "layers" in explicit:
            training = replace(training, hidden_layers=args.layers)
        if "epochs" in explicit:
            training = replace(training, epochs=args.epochs)
    # The spec's fault composition participates in the artifact key, so
    # pre-training a faulty preset warms exactly the key the spec later
    # resolves to (clean on the loose-flag path, as always).
    nonideality = None if spec is None else spec.nonideality
    zoo = GeniexZoo(verbose=True)
    emulator = zoo.get_or_train(config, sampling, training, mode=mode,
                                nonideality=nonideality, progress=True)
    key = zoo.artifact_key(config, sampling, training, mode,
                           nonideality=nonideality)
    print(f"emulator ready: {emulator.rows}x{emulator.cols} "
          f"hidden={emulator.model.hidden}x{emulator.model.hidden_layers} "
          f"(cache key {key}, dir {zoo.cache_dir})")
    return 0


_FIG_RUNNERS = {
    "table1": "repro.experiments.table1_comparison:run_table1",
    "fig2": "repro.experiments.fig2_nf_analysis:run_fig2",
    "fig3": "repro.experiments.fig3_nonlinearity:run_fig3",
    "fig5": "repro.experiments.fig5_rmse:run_fig5",
    "fig7": "repro.experiments.fig7_design_params:run_fig7",
    "fig8": "repro.experiments.fig8_quantization:run_fig8",
    "fig9": "repro.experiments.fig9_bitslicing:run_fig9",
    "variations": "repro.experiments.variations:run_variations",
    "robustness": "repro.experiments.robustness:run_robustness",
}


def _cmd_fig(args) -> int:
    import importlib
    import inspect
    import os

    from repro.errors import ConfigError

    if args.workers is not None:
        # The experiment drivers read the worker count through
        # repro.experiments.common.default_workers().
        os.environ["REPRO_WORKERS"] = str(args.workers)
    spec = _load_spec(args)
    module_name, func_name = _FIG_RUNNERS[args.name].split(":")
    runner = getattr(importlib.import_module(module_name), func_name)
    if spec is not None:
        if "spec" not in inspect.signature(runner).parameters:
            supported = sorted(
                name for name, target in _FIG_RUNNERS.items()
                if "spec" in inspect.signature(getattr(
                    importlib.import_module(target.split(":")[0]),
                    target.split(":")[1])).parameters)
            raise ConfigError(
                f"fig {args.name!r} does not take --spec/--preset; "
                f"supported: {supported}")
        result = runner(spec=spec)
    else:
        result = runner()
    print(result.format())
    return 0


def _cmd_spec(args) -> int:
    from repro.api import PRESETS, EmulationSpec, preset_names

    if args.list:
        for name in preset_names():
            preset = PRESETS[name]
            print(f"{name:18s} engine={preset.engine:11s} "
                  f"xbar={preset.xbar.rows}x{preset.xbar.cols}  "
                  f"key={preset.key()}")
        return 0
    spec = _load_spec(args, default=EmulationSpec())
    if args.keys:
        text = json.dumps({"key": spec.key(),
                           "model_key": spec.model_key()}, indent=2)
    else:
        text = spec.to_json()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_mitigate(args) -> int:
    from repro.api import open_session
    from repro.errors import ConfigError

    spec = _load_spec(args)
    if spec is None:
        raise ConfigError(
            "mitigate requires --spec or --preset (with the mitigation "
            "node set, e.g. --set mitigation.noise.epochs=8)")
    try:
        dataset = json.loads(args.dataset)
    except json.JSONDecodeError:
        dataset = args.dataset  # bare dataset name
    with open_session(spec) as session:
        result = session.mitigate(dataset, hidden=tuple(args.hidden),
                                  model_seed=args.model_seed,
                                  baseline=not args.no_baseline,
                                  progress=True)
    metrics = result.metrics
    source = "zoo cache" if result.from_cache else "fresh run"
    print(f"mitigated model {result.key} ({source}, "
          f"sizes {'x'.join(map(str, result.sizes))})")
    print(f"  float accuracy:     {metrics['float_accuracy']:.4f}")
    if "baseline_accuracy" in metrics:
        print(f"  unmitigated (hw):   {metrics['baseline_accuracy']:.4f}")
    print(f"  mitigated (hw):     {metrics['mitigated_accuracy']:.4f}")
    return 0


async def _run_until_sigterm(service, log, what: str) -> None:
    """Serve until SIGTERM (graceful drain) or cancellation (close).

    Shared by ``repro serve`` and ``repro fleet``: SIGTERM triggers
    ``service.drain()`` — stop accepting, finish in-flight requests,
    then close — while Ctrl-C/cancellation closes immediately.
    """
    import asyncio
    import signal

    loop = asyncio.get_running_loop()
    term = asyncio.Event()
    try:
        loop.add_signal_handler(signal.SIGTERM, term.set)
    except (NotImplementedError, RuntimeError):
        pass   # non-POSIX loops: Ctrl-C still closes below
    serve_task = loop.create_task(service.serve_forever())
    term_task = loop.create_task(term.wait())
    try:
        done, _pending = await asyncio.wait(
            {serve_task, term_task}, return_when=asyncio.FIRST_COMPLETED)
        if term_task in done:
            log.info("SIGTERM received; draining %s", what)
            await service.drain()
    except asyncio.CancelledError:
        pass
    finally:
        serve_task.cancel()
        term_task.cancel()
        await service.close()


def _cmd_serve(args) -> int:
    import asyncio
    import logging

    from repro.core.zoo import GeniexZoo
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import EmulationServer

    log = logging.getLogger("repro.cli")
    registry = ModelRegistry(
        GeniexZoo(cache_dir=args.cache_dir, verbose=True,
                  max_memory_entries=args.max_models),
        max_models=args.max_models,
        max_nets=args.max_nets,
        engine_workers=args.engine_workers)
    server = EmulationServer(
        registry,
        max_batch_rows=args.max_batch,
        max_queue_rows=args.max_queue,
        max_workers=args.workers)

    async def run() -> None:
        await server.start(args.host, args.port)
        log.info("serve options: max_batch=%d", args.max_batch)
        await _run_until_sigterm(server, log, "server")

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        log.info("shutting down")
    return 0


def _cmd_fleet(args) -> int:
    import asyncio
    import logging
    import signal

    from repro.core.zoo import default_cache_dir
    from repro.fleet import FleetFrontend, FleetSupervisor

    log = logging.getLogger("repro.cli")
    cache_dir = args.cache_dir or default_cache_dir()
    worker_args = ["--max-batch", str(args.max_batch),
                   "--max-models", str(args.max_models),
                   "--max-nets", str(args.max_nets),
                   "--engine-workers", str(args.engine_workers)]
    frontend = FleetFrontend(
        max_inflight=args.max_inflight,
        quota_rate=args.quota_rate, quota_burst=args.quota_burst,
        health_interval_s=args.health_interval)
    supervisor = FleetSupervisor(args.workers, cache_dir,
                                 worker_args=worker_args,
                                 respawn=args.respawn)

    class _Fleet:
        """One drain/close surface over front-end + supervisor."""

        async def serve_forever(self):
            await frontend.serve_forever()

        async def drain(self):
            await frontend.drain()
            await supervisor.stop()

        async def close(self):
            await supervisor.stop()
            await frontend.close()

    async def run() -> None:
        # Workers run in sessions of their own, so a SIGTERM that killed
        # this process while they boot would leave them running. Until
        # the drain handler takes over, SIGTERM cancels the boot and
        # every worker already spawned is stopped.
        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, asyncio.current_task().cancel)
        except (NotImplementedError, RuntimeError):
            pass
        try:
            await frontend.start(args.host, args.port)
            await supervisor.start(frontend)
        except asyncio.CancelledError:
            log.info("boot cancelled; stopping workers")
            await _Fleet().close()
            return
        log.info("fleet: %d worker(s), shared cache %s",
                 args.workers, cache_dir)
        await _run_until_sigterm(_Fleet(), log, "fleet")

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        log.info("shutting down fleet")
    return 0


def _cmd_obs(args) -> int:
    from repro.errors import ConfigError
    from repro.obs import format_stage_report, stage_report

    if args.fleet:
        return _cmd_obs_fleet(args)
    if args.input:
        with open(args.input) as handle:
            payload = json.load(handle)
        traces = payload["traces"] if isinstance(payload, dict) else payload
    else:
        from repro.serve.client import ServeClient
        with ServeClient(args.host, args.port) as client:
            traces = client.traces()
    if not isinstance(traces, list):
        raise ConfigError(
            "expected a trace list (or a {'traces': [...]} dump, the "
            "/v1/debug/traces response shape)")
    report = stage_report(traces)
    if args.json:
        print(json.dumps({"traces": len(traces), "stages": report},
                         indent=2))
    else:
        print(f"{len(traces)} traces")
        print(format_stage_report(report))
    return 0


def _cmd_obs_fleet(args) -> int:
    from repro.errors import ConfigError
    from repro.obs import fleet_report, format_fleet_report

    if args.input:
        with open(args.input) as handle:
            metrics = json.load(handle)
    else:
        from repro.serve.client import ServeClient
        with ServeClient(args.host, args.port) as client:
            metrics = client.metrics()
    if not isinstance(metrics, dict) or "workers" not in metrics:
        raise ConfigError(
            "expected a fleet front-end /metrics JSON shape (with a "
            "'workers' section); point --host/--port at the front-end, "
            "not a worker")
    report = fleet_report(metrics)
    if args.json:
        print(json.dumps({"fleet": metrics.get("fleet", {}),
                          "workers": report}, indent=2))
    else:
        shed = metrics.get("fleet", {}).get("shed", {})
        live = sum(row["healthy"] for row in report.values())
        print(f"{len(report)} worker(s), {live} live"
              + (f", shed {shed}" if shed else ""))
        print(format_fleet_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GENIEx reproduction command-line interface")
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="logging level for repro.* loggers (DEBUG/INFO/WARNING/...; "
             "default: $REPRO_LOG_LEVEL or INFO)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser("characterize",
                            help="NF statistics of a crossbar design")
    _add_crossbar_args(p_char)
    _add_spec_args(p_char)
    p_char.add_argument("--samples", type=int, default=4,
                        help="conductance matrices to simulate")
    p_char.add_argument("--seed", type=int, default=0)
    p_char.set_defaults(func=_cmd_characterize)

    p_train = sub.add_parser("train-geniex",
                             help="fit (or load) a GENIEx emulator")
    _add_crossbar_args(p_train)
    _add_spec_args(p_train)
    p_train.add_argument("--samples", type=int, default=60,
                         action=_TrackedAction,
                         help="conductance matrices in the training sweep")
    p_train.add_argument("--hidden", type=int, default=256,
                         action=_TrackedAction)
    p_train.add_argument("--layers", type=int, default=2,
                         action=_TrackedAction)
    p_train.add_argument("--epochs", type=int, default=180,
                         action=_TrackedAction)
    p_train.add_argument("--seed", type=int, default=0,
                         action=_TrackedAction)
    p_train.set_defaults(func=_cmd_train_geniex)

    p_spec = sub.add_parser(
        "spec", help="print / validate a declarative emulation spec")
    _add_spec_args(p_spec)
    p_spec.add_argument("--list", action="store_true",
                        help="list preset names and exit")
    p_spec.add_argument("--keys", action="store_true",
                        help="print the spec's content digests")
    p_spec.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="write the spec JSON to a file")
    p_spec.set_defaults(func=_cmd_spec)

    p_fig = sub.add_parser("fig", help="regenerate a paper figure/table")
    p_fig.add_argument("name", choices=sorted(_FIG_RUNNERS))
    _add_spec_args(p_fig)
    p_fig.add_argument("--workers", type=int, default=None,
                       help="funcsim engine threads for DNN accuracy "
                            "experiments (default: $REPRO_WORKERS or 1)")
    p_fig.set_defaults(func=_cmd_fig)

    p_mitigate = sub.add_parser(
        "mitigate", help="run a spec's mitigation recipe on a dataset")
    _add_spec_args(p_mitigate)
    p_mitigate.add_argument(
        "--dataset", default="blobs",
        help="dataset handle: a name (blobs/shapes/textures) or a JSON "
             "object like '{\"name\": \"blobs\", \"n_train\": 256}'")
    p_mitigate.add_argument("--hidden", type=int, nargs="+", default=[32],
                            help="classifier hidden layer widths")
    p_mitigate.add_argument("--model-seed", type=int, default=0,
                            help="classifier init seed")
    p_mitigate.add_argument("--no-baseline", action="store_true",
                            help="skip the unmitigated-baseline accuracy")
    p_mitigate.set_defaults(func=_cmd_mitigate)

    p_serve = sub.add_parser(
        "serve", help="run the emulation service (JSON over HTTP)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8000,
                         help="0 picks a free port")
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="rows per coalesced microbatch")
    p_serve.add_argument("--max-queue", type=int, default=4096,
                         help="pending rows per key before 429")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="executor threads running batched model calls")
    p_serve.add_argument("--max-models", type=int, default=8,
                         help="warm emulators kept in memory (LRU)")
    p_serve.add_argument("--max-nets", type=int, default=8,
                         help="compiled network programs kept in memory "
                              "(LRU)")
    p_serve.add_argument("--engine-workers", type=int, default=1,
                         help="shard prepared-engine matmuls across this "
                              "many threads (1 = calling thread only)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="GENIEx zoo directory (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro/geniex)")
    p_serve.set_defaults(func=_cmd_serve)

    p_fleet = sub.add_parser(
        "fleet", help="run a least-loaded front-end over N serve "
                      "workers sharing one artifact store")
    p_fleet.add_argument("--workers", type=int, default=2,
                         help="serve worker processes to spawn")
    p_fleet.add_argument("--host", default="127.0.0.1",
                         help="front-end bind address (workers stay on "
                              "loopback)")
    p_fleet.add_argument("--port", type=int, default=8000,
                         help="front-end port; 0 picks a free port")
    p_fleet.add_argument("--max-inflight", type=int, default=256,
                         help="global in-flight bound before 429")
    p_fleet.add_argument("--quota-rate", type=float, default=None,
                         help="per-tenant requests/s (X-Repro-Tenant "
                              "header); default: no quotas")
    p_fleet.add_argument("--quota-burst", type=float, default=None,
                         help="per-tenant burst size (default: the rate)")
    p_fleet.add_argument("--health-interval", type=float, default=2.0,
                         help="seconds between per-worker health probes")
    p_fleet.add_argument("--respawn", action="store_true",
                         help="respawn and re-admit workers that die")
    p_fleet.add_argument("--max-batch", type=int, default=64,
                         help="worker rows per coalesced microbatch")
    p_fleet.add_argument("--max-models", type=int, default=8,
                         help="warm emulators per worker (LRU)")
    p_fleet.add_argument("--max-nets", type=int, default=8,
                         help="compiled network programs per worker (LRU)")
    p_fleet.add_argument("--engine-workers", type=int, default=1,
                         help="shard threads per worker engine")
    p_fleet.add_argument("--cache-dir", default=None,
                         help="shared GENIEx zoo directory — the fleet's "
                              "artifact store (default: $REPRO_CACHE_DIR "
                              "or ~/.cache/repro/geniex)")
    p_fleet.set_defaults(func=_cmd_fleet)

    p_obs = sub.add_parser(
        "obs", help="per-stage latency report from serve traces")
    p_obs.add_argument("--input", default=None, metavar="FILE",
                       help="trace dump file (a /v1/debug/traces response "
                            "or a bare trace list); default: fetch live")
    p_obs.add_argument("--host", default="127.0.0.1",
                       help="server to fetch traces from (without --input)")
    p_obs.add_argument("--port", type=int, default=8000)
    p_obs.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of a table")
    p_obs.add_argument("--fleet", action="store_true",
                       help="per-worker fleet table (point --host/--port "
                            "at a fleet front-end, or --input at its "
                            "saved /metrics JSON)")
    p_obs.set_defaults(func=_cmd_obs)
    return parser


def main(argv=None) -> int:
    from repro.obs import setup_logging

    args = build_parser().parse_args(argv)
    setup_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
