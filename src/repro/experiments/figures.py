"""Generators for every figure in the paper's evaluation (Sec. 4).

Each ``figN_*`` function runs the corresponding sweep on the simulated GPUs
and returns one :class:`~repro.experiments.report.SweepResult` per panel.
``benchmarks/bench_figN_*.py`` executes these, prints the paper-style
tables, and asserts the figure-level claims.
"""

from __future__ import annotations

from repro.baselines.registry import ConvAlgorithm as A
from repro.baselines.registry import supports
from repro.experiments.config import (
    Fig3Config,
    Fig4Config,
    Fig5Config,
    Fig6Config,
    Fig7Config,
)
from repro.experiments.report import SweepResult
from repro.nn.network import profile_conv_time
from repro.nn.synthetic import synthetic_network
from repro.perfmodel.counters import count
from repro.perfmodel.device import get_device
from repro.perfmodel.timing import simulate_ms
from repro.utils.shapes import ConvShape


def fig3_input_sweep(device: str,
                     config: Fig3Config | None = None) -> SweepResult:
    """Fig. 3: API time vs input size on one device."""
    config = config or Fig3Config()
    values = {}
    for size in config.input_sizes:
        shape = ConvShape((size, size), (config.kernel, config.kernel),
                          n=config.batch, c=config.channels, f=config.filters,
                          padding=config.padding)
        for method in config.methods:
            if supports(method, shape):
                values[(size, method)] = simulate_ms(method, shape, device)
    return SweepResult(
        title=f"Fig. 3 — time (ms) vs input size on {get_device(device).name}"
              f" (kernel {config.kernel}, batch {config.batch})",
        x_name="input_size", x_values=config.input_sizes,
        methods=config.methods, values=values,
    )


def fig4_kernel_sweep(device: str,
                      config: Fig4Config | None = None) -> SweepResult:
    """Fig. 4: API time vs kernel size on one device.

    Winograd contributes its single supported point (kernel 3), mirroring
    the figure's lone Winograd marker.
    """
    config = config or Fig4Config()
    methods = config.methods + (A.WINOGRAD,)
    values = {}
    for k in config.kernel_sizes:
        shape = ConvShape((config.input_size, config.input_size), (k, k),
                          n=config.batch, c=config.channels, f=config.filters)
        for method in config.methods:
            if supports(method, shape):
                values[(k, method)] = simulate_ms(method, shape, device)
    # The lone Winograd point.
    wk = config.winograd_kernel
    wino_shape = ConvShape((config.input_size, config.input_size), (wk, wk),
                           n=config.batch, c=config.channels, f=config.filters)
    if wk in config.kernel_sizes:
        values[(wk, A.WINOGRAD)] = simulate_ms(A.WINOGRAD, wino_shape,
                                               device)
    return SweepResult(
        title=f"Fig. 4 — time (ms) vs kernel size on "
              f"{get_device(device).name} (input {config.input_size}, "
              f"batch {config.batch})",
        x_name="kernel_size", x_values=config.kernel_sizes,
        methods=methods, values=values,
    )


def fig5_channel_sweep(config: Fig5Config | None = None) -> SweepResult:
    """Fig. 5: API time vs channel count, all cuDNN variants, 3090Ti."""
    config = config or Fig5Config()
    values = {}
    for c in config.channel_counts:
        shape = ConvShape((config.input_size, config.input_size),
                          (config.kernel, config.kernel), n=config.batch, c=c,
                          f=c, padding=config.padding)
        for method in config.methods:
            if supports(method, shape):
                values[(c, method)] = simulate_ms(method, shape,
                                                  config.device)
    return SweepResult(
        title=f"Fig. 5 — time (ms) vs channel count on "
              f"{get_device(config.device).name} (input "
              f"{config.input_size}, kernel {config.kernel})",
        x_name="channels", x_values=config.channel_counts,
        methods=config.methods, values=values,
    )


def fig6_network_sweep(device: str,
                       config: Fig6Config | None = None) -> SweepResult:
    """Fig. 6: accumulated conv-operator time in 20-layer synthetic nets.

    Averages over several network seeds (the paper's "various layer
    designs"), with one algorithm forced network-wide per series.
    """
    config = config or Fig6Config()
    values = {}
    for size in config.input_sizes:
        networks = [synthetic_network(size, seed=s) for s in config.seeds]
        for method in config.methods:
            totals = []
            for net in networks:
                profile = profile_conv_time(
                    net, (config.batch, 3, size, size), device,
                    algorithm=method, iterations=config.iterations,
                )
                totals.append(profile.total_ms)
            values[(size, method)] = sum(totals) / len(totals)
    return SweepResult(
        title=f"Fig. 6 — accumulated conv time (ms) in 20-layer synthetic "
              f"networks on {get_device(device).name} "
              f"({config.iterations} iterations)",
        x_name="input_size", x_values=config.input_sizes,
        methods=config.methods, values=values,
    )


def fig7_counters(config: Fig7Config | None = None
                  ) -> tuple[SweepResult, SweepResult]:
    """Fig. 7: (FLOPs, memory transactions) vs input size on A10G."""
    config = config or Fig7Config()
    flops, transactions = {}, {}
    for size in config.input_sizes:
        shape = ConvShape((size, size), (config.kernel, config.kernel),
                          n=config.batch, c=config.channels, f=config.filters,
                          padding=config.padding)
        for method in config.methods:
            if supports(method, shape):
                report = count(method, shape)
                flops[(size, method)] = report.flops
                transactions[(size, method)] = report.transactions
    common = dict(x_name="input_size", x_values=config.input_sizes,
                  methods=config.methods)
    return (
        SweepResult(title="Fig. 7a — floating point operations vs input "
                          "size (A10G)",
                    values=flops, metric="flops", **common),
        SweepResult(title="Fig. 7b — 32B memory transactions vs input size "
                          "(A10G)",
                    values=transactions, metric="transactions", **common),
    )
