"""Command-line interface for the MTL-Split reproduction.

Exposes the analyses a user wants without writing code::

    python -m repro profile --backbone efficientnet_b0 --input-size 1024
    python -m repro paradigms --backbone mobilenet_v3_small --tasks 3
    python -m repro dataset --name shapes3d --samples 200
    python -m repro split-sweep --backbone mobilenet_v3_small --bandwidth-mbps 10
    python -m repro train --backbone mobilenet_v3_tiny --epochs 2
    python -m repro pipeline --backbone mobilenet_v3_tiny --batches 8

Training at the CLI uses the quick 32x32 stand-in workloads; the full
benchmark harness lives under ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["build_parser", "main"]


def _cmd_profile(args: argparse.Namespace) -> int:
    from .deployment import profile_backbone, render_table4, table4_rows
    from .models import get_spec

    if args.table4:
        rows = table4_rows([args.backbone], input_size=args.input_size)
        print(render_table4(rows))
        return 0
    profile = profile_backbone(
        get_spec(args.backbone), input_size=args.input_size, batch_size=args.batch_size
    )
    print(profile.summary())
    if args.layers:
        print(f"{'layer':<40}{'params':>12}{'out shape':>18}{'kFLOPs':>12}")
        for layer in profile.layers:
            print(
                f"{layer.name:<40}{layer.params:>12,}"
                f"{str(layer.out_shape):>18}{layer.flops / 1e3:>12.1f}"
            )
    return 0


def _cmd_paradigms(args: argparse.Namespace) -> int:
    from .deployment import (
        GIGABIT_ETHERNET,
        JETSON_NANO,
        RTX3090_SERVER,
        compare_paradigms,
        render_paradigm_comparison,
    )
    from .models import get_spec

    channel = (
        GIGABIT_ETHERNET.degraded(1000.0 / args.bandwidth_mbps)
        if args.bandwidth_mbps != 1000
        else GIGABIT_ETHERNET
    )
    reports = compare_paradigms(
        get_spec(args.backbone),
        args.tasks,
        JETSON_NANO,
        RTX3090_SERVER,
        channel,
        input_size=args.input_size,
    )
    print(render_paradigm_comparison(reports))
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from . import data

    makers = {
        "shapes3d": lambda n: data.make_shapes3d(n, tasks=(), seed=args.seed),
        "medic": lambda n: data.make_medic(n, seed=args.seed),
        "faces": lambda n: data.make_faces(n, seed=args.seed),
    }
    if args.name not in makers:
        print(f"unknown dataset {args.name!r}; choose from {sorted(makers)}", file=sys.stderr)
        return 2
    dataset = makers[args.name](args.samples)
    print(data.dataset_summary(dataset))
    if args.export:
        data.save_image_grid(dataset.images[: args.grid], args.export)
        print(f"wrote {min(args.grid, len(dataset))}-image grid to {args.export}")
    return 0


def _cmd_split_sweep(args: argparse.Namespace) -> int:
    from .deployment import (
        GIGABIT_ETHERNET,
        JETSON_NANO,
        RTX3090_SERVER,
        latency_profile,
        optimal_split_index,
    )
    from .models import get_spec

    channel = (
        GIGABIT_ETHERNET.degraded(1000.0 / args.bandwidth_mbps)
        if args.bandwidth_mbps != 1000
        else GIGABIT_ETHERNET
    )
    spec = get_spec(args.backbone)
    profile = latency_profile(
        spec, JETSON_NANO, RTX3090_SERVER, channel, input_size=args.input_size
    )
    best = optimal_split_index(
        spec, JETSON_NANO, RTX3090_SERVER, channel, input_size=args.input_size
    )
    print(f"{'cut':>14}{'transmit':>12}{'edge ms':>10}{'net ms':>10}{'srv ms':>10}{'total ms':>10}")
    for point in profile:
        marker = "  <- optimal" if point.stage_index == best.stage_index else ""
        print(
            f"{point.stage_name:>14}{point.transmit_elements:>12,}"
            f"{point.edge_seconds * 1e3:>10.2f}{point.transfer_seconds * 1e3:>10.2f}"
            f"{point.server_seconds * 1e3:>10.2f}{point.total_seconds * 1e3:>10.2f}{marker}"
        )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from . import data
    from .core import MTLSplitNet, MultiTaskTrainer, TrainConfig, evaluate

    dataset = data.make_shapes3d(args.samples, tasks=("scale", "shape"), seed=args.seed)
    train, val, test = data.train_val_test_split(
        dataset, rng=np.random.default_rng(args.seed)
    )
    net = MTLSplitNet.from_tasks(
        args.backbone, list(train.tasks), input_size=32, seed=args.seed
    )
    config = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        seed=args.seed, verbose=True,
    )
    MultiTaskTrainer(config).fit(net, train, val_set=val)
    accuracy = evaluate(net, test)
    for task, value in accuracy.items():
        print(f"test {task}: {value:.3f}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from . import data
    from .core import MTLSplitNet, MultiTaskTrainer, TrainConfig
    from .deployment import GIGABIT_ETHERNET, render_throughput
    from .serve import DeploymentSpec, deploy

    if args.batches < 1 or args.batch_size < 1:
        print("pipeline needs --batches >= 1 and --batch-size >= 1", file=sys.stderr)
        return 2
    if args.bandwidth_mbps <= 0:
        print("pipeline needs --bandwidth-mbps > 0", file=sys.stderr)
        return 2
    channel = (
        GIGABIT_ETHERNET.degraded(1000.0 / args.bandwidth_mbps)
        if args.bandwidth_mbps != 1000
        else GIGABIT_ETHERNET
    )
    samples = args.batches * args.batch_size
    dataset = data.make_shapes3d(
        max(samples, 128), tasks=("scale", "shape"), seed=args.seed
    )
    net = MTLSplitNet.from_tasks(
        args.backbone, list(dataset.tasks), input_size=32, seed=args.seed
    )
    if args.epochs > 0:
        MultiTaskTrainer(
            TrainConfig(epochs=args.epochs, batch_size=64, seed=args.seed)
        ).fit(net, dataset)
    net.eval()
    spec = DeploymentSpec(
        model=net,
        input_size=32,
        split_index=args.split_index,
        wire=args.wire,
        channel=channel,
    )
    images = dataset.images[:samples]
    batches = [
        images[start : start + args.batch_size]
        for start in range(0, samples, args.batch_size)
    ]
    with deploy(spec) as deployment:
        deployment.warmup([args.batch_size])
        _, report = deployment.stream(batches)
        print(
            f"{args.backbone} @32px, planned engine halves, "
            f"wire={args.wire}, {channel.name}, payload "
            f"{deployment.pipeline.mean_payload_bytes() / 1024:.1f} KiB/batch"
        )
    print(render_throughput(report))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from . import data
    from .core import MTLSplitNet
    from .nn.engine import ExecutionPlan, PlanTemplate, fan_out_width, pin_blas_threads

    if args.plan_command != "describe":  # pragma: no cover - argparse enforces
        print(f"unknown plan subcommand {args.plan_command!r}", file=sys.stderr)
        return 2
    if args.batch_size < 1:
        print("plan describe needs --batch-size >= 1", file=sys.stderr)
        return 2
    dataset = data.make_shapes3d(4, tasks=("scale", "shape"), seed=args.seed)
    net = MTLSplitNet.from_tasks(
        args.backbone, list(dataset.tasks), input_size=args.input_size,
        seed=args.seed,
    )
    net.eval()
    edge_model, server_model = net.split(args.split_index, input_size=args.input_size)
    batch_shape = (
        args.batch_size, net.backbone.spec.input_channels,
        args.input_size, args.input_size,
    )
    optimize = not args.no_optimize
    pin_blas_threads()  # what a deployment does before it sizes its fan-out
    width = fan_out_width()

    def describe_half(model, shape):
        """Print the plan a deployment binds for ``shape``; returns its IR."""
        session = model.compile_for_inference()
        template = PlanTemplate(session, shape[1:], optimize=optimize)
        bound = (1,) + shape[1:] if template.per_image else shape
        plan = ExecutionPlan(session, bound, template=template)
        if template.per_image:
            print(f"executes as {shape[0]} x batch-1 plan on "
                  f"{min(shape[0], width)} thread(s)")
        print(plan.describe())
        return plan.ir

    print(f"# edge half ({args.backbone} @{args.input_size}px, "
          f"batch {args.batch_size})")
    edge_ir = describe_half(edge_model, batch_shape)
    z_row = edge_ir.values[edge_ir.outputs[None]].row_shape
    print()
    print("# server half")
    describe_half(server_model, (args.batch_size,) + z_row[1:])
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .scenarios import (
        ScenarioError,
        available_scenarios,
        get_scenario,
        run_scenario,
        scenario_matrix,
    )

    if args.scenarios_command == "list":
        rows = scenario_matrix(tier=args.tier)
        if not rows:
            print(f"no scenarios in tier {args.tier!r}", file=sys.stderr)
            return 2
        print(f"{'name':<28}{'tier':<7}{'backbone':<20}{'input':>7}"
              f"{'batch':>7}{'wire':>9}  {'split':<7}{'channel'}")
        for scenario in rows:
            cut = scenario.split_index if scenario.split_index is not None else "paper"
            print(
                f"{scenario.name:<28}{scenario.tier:<7}{scenario.backbone:<20}"
                f"{scenario.input_size:>5}px{scenario.batches:>4}x{scenario.batch_size:<2}"
                f"{scenario.wire:>9}  {str(cut):<7}{scenario.channel}"
            )
        return 0

    try:
        scenario = get_scenario(args.name)
    except ScenarioError as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.scenarios_command == "describe":
        if args.json:
            print(scenario.to_json())
        else:
            print(scenario.describe())
            if scenario.description:
                print(f"  {scenario.description}")
            print(f"  deployment: {scenario.deployment_spec().describe()}")
            print(f"  traffic: {scenario.batches} batches x {scenario.batch_size} "
                  f"images at {scenario.input_size}px "
                  f"({scenario.noise_amount:.0%} salt-and-pepper, seed {scenario.seed})")
        return 0

    # run
    from .deployment import render_throughput

    if args.batches is not None and args.batches < 1:
        print("scenarios run needs --batches >= 1", file=sys.stderr)
        return 2
    overrides = {}
    if args.no_optimize:
        overrides["optimize"] = False
    result = run_scenario(scenario, batches=args.batches, **overrides)
    report = result.report
    print(result.deployment_description)
    print(
        f"  edge {result.edge_ms:.2f} ms, transfer "
        f"{result.transfer_seconds * 1e3:.2f} ms (modelled, "
        f"{result.payload_bytes_per_batch / 1024:.1f} KiB/batch), "
        f"server {result.server_seconds * 1e3:.2f} ms"
    )
    print(
        f"  engine: {report.arena_bytes / 1024:.0f} KiB arena, "
        f"{report.steady_state_allocs} allocs/batch, "
        f"{report.fused_steps} fused epilogues, "
        f"{report.spmm_row_blocks} SpMM row blocks"
    )
    print(render_throughput(report))
    return 0


def _install_drain_handlers():
    """Route SIGTERM/SIGINT into a KeyboardInterrupt for graceful drain.

    The interrupt unwinds through the deployment's context manager, whose
    ``close()`` stops admissions, flushes the queue, and fails anything
    stranded with the named :class:`~repro.serve.batching.ShutdownError`
    — so a signalled ``repro serve`` drains and exits 0 instead of
    leaking futures or worker processes.  Returns an undo callable.
    """
    import signal as _signal

    def _raise_interrupt(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = {
            _signal.SIGTERM: _signal.signal(_signal.SIGTERM, _raise_interrupt),
            _signal.SIGINT: _signal.signal(_signal.SIGINT, _raise_interrupt),
        }
    except ValueError:  # not the main thread: keep default delivery
        return lambda: None

    def _restore():
        for signum, handler in previous.items():
            _signal.signal(signum, handler)

    return _restore


def _cmd_attest(args: argparse.Namespace) -> int:
    """``repro attest record|verify`` — the golden-digest registry.

    Exit codes are CI-shaped: 0 every attestation matched (or was
    recorded), 1 at least one digest diverged or a golden is missing,
    2 usage errors (unknown scenario).
    """
    from .attest import AttestationError, record_goldens, verify_goldens
    from .scenarios import ScenarioError

    names = [args.scenario] if args.scenario else None
    try:
        if args.attest_command == "record":
            result = record_goldens(names=names, update=args.update)
        else:
            result = verify_goldens(names=names, host_gated=args.host_gated)
    except (ScenarioError, AttestationError) as error:
        print(str(error), file=sys.stderr)
        return 2
    print(result.describe())
    return 0 if result.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .data.streams import ArrivalSpec
    from .deployment import GIGABIT_ETHERNET
    from .serve import (
        CachePolicy,
        ClusterSpec,
        DeploymentSpec,
        SpecError,
        WorkerFaultPlan,
        render_cache_bench,
        render_cluster_bench,
        render_overload_bench,
        render_serve_bench,
        run_cache_bench,
        run_cluster_bench,
        run_overload_bench,
        run_serve_bench,
    )

    try:
        client_counts = [int(part) for part in args.clients.split(",") if part]
    except ValueError:
        print(f"--clients must be comma-separated ints, got {args.clients!r}",
              file=sys.stderr)
        return 2
    if not client_counts or min(client_counts) < 1:
        print("serve needs --clients with values >= 1", file=sys.stderr)
        return 2
    if args.requests < 1:
        print("serve needs --requests >= 1", file=sys.stderr)
        return 2
    if args.bandwidth_mbps <= 0:
        print("serve needs --bandwidth-mbps > 0", file=sys.stderr)
        return 2
    arrival = None
    if args.arrival is not None:
        try:
            arrival = ArrivalSpec.from_string(args.arrival)
        except ValueError as error:
            print(f"bad --arrival spec: {error}", file=sys.stderr)
            return 2
    try:
        load_factors = [
            float(part) for part in args.load_factors.split(",") if part
        ]
    except ValueError:
        print(f"--load-factors must be comma-separated floats, got "
              f"{args.load_factors!r}", file=sys.stderr)
        return 2
    if not load_factors or min(load_factors) <= 0:
        print("serve needs --load-factors with values > 0", file=sys.stderr)
        return 2
    channel = (
        GIGABIT_ETHERNET.degraded(1000.0 / args.bandwidth_mbps)
        if args.bandwidth_mbps != 1000
        else GIGABIT_ETHERNET
    )
    split_index = args.split_index
    if split_index not in (None, "auto"):
        try:
            split_index = int(split_index)
        except ValueError:
            print(f"--split-index must be an int or 'auto', got {split_index!r}",
                  file=sys.stderr)
            return 2
    if args.replicas < 1:
        print("serve needs --replicas >= 1", file=sys.stderr)
        return 2
    worker_faults = None
    if args.worker_faults is not None:
        try:
            worker_faults = WorkerFaultPlan.from_string(args.worker_faults)
        except ValueError as error:
            print(f"bad --worker-faults spec: {error}", file=sys.stderr)
            return 2
    cache_policy = None
    if args.cache is not None:
        try:
            cache_policy = CachePolicy.from_string(args.cache)
        except ValueError as error:
            print(f"bad --cache spec: {error}", file=sys.stderr)
            return 2
    duplicate_rates = None
    if args.duplicate_rates is not None:
        try:
            duplicate_rates = [
                float(part)
                for part in args.duplicate_rates.split(",")
                if part
            ]
        except ValueError:
            print(f"--duplicate-rates must be comma-separated floats, got "
                  f"{args.duplicate_rates!r}", file=sys.stderr)
            return 2
        if not duplicate_rates or not all(
            0.0 <= rate <= 1.0 for rate in duplicate_rates
        ):
            print("serve needs --duplicate-rates with values in [0, 1]",
                  file=sys.stderr)
            return 2
    try:
        spec = DeploymentSpec(
            model=args.backbone,
            tasks=(("scale", 8), ("shape", 4)),
            input_size=args.input_size,
            split_index=split_index,
            wire=args.wire,
            channel=channel,
            max_batch_size=args.max_batch_size,
            max_queue_delay_ms=args.max_delay_ms,
            max_queue_depth=args.queue_depth,
            deadline_ms=args.deadline_ms,
            cache=cache_policy,
            replicas=args.replicas,
            seed=args.seed,
        )
    except SpecError as error:
        print(f"bad deployment spec: {error}", file=sys.stderr)
        return 2
    restore_signals = _install_drain_handlers()
    try:
        if args.replicas > 1 or worker_faults is not None:
            # Replica-cluster burst: N supervised worker processes, with
            # optional scheduled SIGKILL chaos (--worker-faults).
            try:
                cluster_spec = ClusterSpec(
                    deployment=spec, worker_faults=worker_faults
                )
            except SpecError as error:
                print(f"bad cluster spec: {error}", file=sys.stderr)
                return 2
            print(f"cluster bench: {cluster_spec.describe()}")
            result = run_cluster_bench(
                cluster_spec,
                requests=args.requests * max(client_counts),
                seed=args.seed,
            )
            print(render_cluster_bench(result))
        elif duplicate_rates is not None:
            # Duplicate-fraction sweep: cache-off vs cache-on deployments
            # driven back-to-back on identical popularity-shaped streams.
            print(f"cache bench: {spec.describe()}")
            result = run_cache_bench(
                spec,
                duplicate_rates=duplicate_rates,
                requests_per_point=args.requests * max(client_counts),
                seed=args.seed,
            )
            print(render_cache_bench(result))
        elif arrival is not None:
            # Open-loop overload sweep: requests arrive on the schedule
            # whether or not the server keeps up; admission control sheds.
            print(f"overload bench ({arrival.to_string()}): {spec.describe()}")
            result = run_overload_bench(
                spec,
                load_factors=load_factors,
                requests_per_point=args.requests * max(client_counts),
                arrival=arrival,
                seed=args.seed,
            )
            print(render_overload_bench(result))
        else:
            print(f"serving bench: {spec.describe()}")
            result = run_serve_bench(
                spec,
                client_counts=client_counts,
                requests_per_client=args.requests,
                seed=args.seed,
            )
            print(render_serve_bench(result))
    except KeyboardInterrupt:
        # The context managers inside the bench runners already drained:
        # admissions stopped, queued futures flushed, stragglers failed
        # with ShutdownError, workers joined.  A signalled serve is a
        # clean exit, not a crash.
        print("\ninterrupted: graceful drain complete "
              "(admissions stopped, queue flushed, stranded futures "
              "failed with ShutdownError)")
        return 0
    finally:
        restore_signals()
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        print(f"wrote machine-readable result to {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="MTL-Split (DAC 2024) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="analytic backbone profile (Table 4)")
    p.add_argument("--backbone", default="mobilenet_v3_small")
    p.add_argument("--input-size", type=int, default=224)
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--layers", action="store_true", help="print per-layer rows")
    p.add_argument("--table4", action="store_true", help="print Table-4 columns")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("paradigms", help="LoC / RoC / SC comparison (Sec. 4.2)")
    p.add_argument("--backbone", default="mobilenet_v3_small")
    p.add_argument("--tasks", type=int, default=2)
    p.add_argument("--input-size", type=int, default=1024)
    p.add_argument("--bandwidth-mbps", type=float, default=1000)
    p.set_defaults(func=_cmd_paradigms)

    p = sub.add_parser("dataset", help="generate and summarise a stand-in dataset")
    p.add_argument("--name", default="shapes3d")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--export", help="write a PPM image grid to this path")
    p.add_argument("--grid", type=int, default=16, help="images in the exported grid")
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("split-sweep", help="per-cut latency sweep (Neurosurgeon)")
    p.add_argument("--backbone", default="mobilenet_v3_small")
    p.add_argument("--input-size", type=int, default=224)
    p.add_argument("--bandwidth-mbps", type=float, default=1000)
    p.set_defaults(func=_cmd_split_sweep)

    p = sub.add_parser(
        "pipeline", help="overlapped split-pipeline throughput (planned engine)"
    )
    p.add_argument("--backbone", default="mobilenet_v3_tiny")
    p.add_argument("--batches", type=int, default=8)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--split-index", type=int, default=None)
    p.add_argument("--wire", default="float32",
                   choices=("float32", "float16", "quant8"))
    p.add_argument("--bandwidth-mbps", type=float, default=1000)
    p.add_argument("--epochs", type=int, default=1,
                   help="quick training epochs before deployment (0 = raw init)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser(
        "plan",
        help="inspect the engine's optimized execution plans",
    )
    plan_sub = p.add_subparsers(dest="plan_command", required=True)
    pd = plan_sub.add_parser(
        "describe",
        help="dump the optimized plan-IR (fused epilogues, elided copies, "
             "blocked SpMMs) for both pipeline halves",
    )
    pd.add_argument("--backbone", default="mobilenet_v3_tiny")
    pd.add_argument("--input-size", type=int, default=32)
    pd.add_argument("--batch-size", type=int, default=16)
    pd.add_argument("--split-index", type=int, default=None)
    pd.add_argument("--no-optimize", action="store_true",
                    help="show the straight-line lowering instead of the "
                         "optimized plan")
    pd.add_argument("--seed", type=int, default=0)
    pd.set_defaults(func=_cmd_plan)

    p = sub.add_parser(
        "scenarios",
        help="the declarative workload registry (32px quick -> 224px hires)",
    )
    scn_sub = p.add_subparsers(dest="scenarios_command", required=True)
    sl = scn_sub.add_parser("list", help="list the registered scenario matrix")
    sl.add_argument("--tier", default=None,
                    help="restrict to one tier (quick / mid / hires)")
    sl.set_defaults(func=_cmd_scenarios)
    sd = scn_sub.add_parser(
        "describe", help="show one scenario's spec, deployment and traffic"
    )
    sd.add_argument("name", help="scenario name (see 'repro scenarios list')")
    sd.add_argument("--json", action="store_true",
                    help="print the round-trippable JSON spec instead")
    sd.set_defaults(func=_cmd_scenarios)
    sr = scn_sub.add_parser(
        "run", help="deploy a scenario and stream its synthetic traffic"
    )
    sr.add_argument("name", help="scenario name (see 'repro scenarios list')")
    sr.add_argument("--batches", type=int, default=None,
                    help="override the scenario's standard run length")
    sr.add_argument("--no-optimize", action="store_true",
                    help="bind the straight-line reference lowering instead "
                         "of the optimized plans")
    sr.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser(
        "attest",
        help="golden-digest attestation: record/verify scenario provenance",
    )
    att_sub = p.add_subparsers(dest="attest_command", required=True)
    ar = att_sub.add_parser(
        "record",
        help="record golden attestations (default: quick + hires tiers)",
    )
    ar.add_argument("--scenario", default=None,
                    help="record one scenario instead of the default set")
    ar.add_argument("--update", action="store_true",
                    help="overwrite existing goldens (a reviewed, deliberate "
                         "act — see docs/benchmarking.md)")
    ar.set_defaults(func=_cmd_attest)
    av = att_sub.add_parser(
        "verify",
        help="recompute digests and diff them against the committed goldens",
    )
    av.add_argument("--scenario", default=None,
                    help="verify one scenario instead of every golden")
    av.add_argument("--host-gated", action="store_true",
                    help="also verify host-gated (hires) goldens")
    av.set_defaults(func=_cmd_attest)

    p = sub.add_parser(
        "serve",
        help="dynamic-batching serving benchmark (concurrent submit() load)",
    )
    p.add_argument("--backbone", default="mobilenet_v3_tiny")
    p.add_argument("--input-size", type=int, default=32)
    p.add_argument("--clients", default="1,8,64",
                   help="comma-separated concurrent client counts")
    p.add_argument("--requests", type=int, default=8,
                   help="requests per client (closed loop)")
    p.add_argument("--split-index", default=None,
                   help="backbone stages on the edge, or 'auto' for the "
                        "latency-optimal cut")
    p.add_argument("--wire", default="float32",
                   choices=("float32", "float16", "quant8"))
    p.add_argument("--bandwidth-mbps", type=float, default=1000)
    p.add_argument("--max-batch-size", type=int, default=8,
                   help="dispatcher micro-batch cap")
    p.add_argument("--max-delay-ms", type=float, default=2.0,
                   help="longest wait for batch company once a request is queued")
    p.add_argument("--arrival", default=None, metavar="KIND[:K=V,...]",
                   help="switch to an open-loop overload sweep with this "
                        "arrival process, e.g. 'poisson:rate=200' or "
                        "'bursty:burst_factor=8' (rate is overridden per "
                        "load factor; see repro.data.streams.ArrivalSpec)")
    p.add_argument("--load-factors", default="0.25,0.5,1,2,4",
                   help="offered load as multiples of calibrated capacity "
                        "(open-loop mode only)")
    p.add_argument("--queue-depth", type=int, default=None,
                   help="bound the request queue; full-queue submissions "
                        "are shed with RejectedError")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request queue deadline; late requests fail "
                        "with DeadlineExceededError")
    p.add_argument("--replicas", type=int, default=1,
                   help="worker processes; > 1 serves through the "
                        "supervised replica cluster (repro.serve.cluster)")
    p.add_argument("--worker-faults", default=None, metavar="K=V[,...]",
                   help="seeded SIGKILL schedule for replica chaos, e.g. "
                        "'at=2+5,seed=7' or 'rate=0.05,max=3,seed=1' "
                        "(see repro.serve.WorkerFaultPlan.from_string)")
    p.add_argument("--cache", default=None, metavar="TIER[:K=V,...]",
                   help="content-addressed serve cache policy, e.g. 'both', "
                        "'response:capacity=16777216,ttl=30', or 'off' "
                        "(see repro.serve.CachePolicy.from_string)")
    p.add_argument("--duplicate-rates", default=None,
                   help="switch to the cache bench: comma-separated "
                        "duplicate fractions in [0, 1] swept with "
                        "interleaved cache-off baselines, e.g. '0,0.5,0.9'")
    p.add_argument("--json", default=None, help="also write the result dict here")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("train", help="quick MTL training demo (32x32 stand-in)")
    p.add_argument("--backbone", default="mobilenet_v3_tiny")
    p.add_argument("--samples", type=int, default=800)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
