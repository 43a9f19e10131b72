"""Design-choice ablation sweeps beyond the paper's figures.

DESIGN.md calls out several sizing decisions the paper fixes without a
figure: descriptor-ring depth, recycling-stack depth, and the small-
buffer threshold. These sweeps quantify each over the detailed
simulation; `benchmarks/test_ablation_sweeps.py` runs them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.loopback import InterfaceKind, build_interface, run_point
from repro.core import CcnicConfig
from repro.platform.presets import PlatformSpec


def ring_size_sweep(
    spec: PlatformSpec,
    sizes: List[int],
    pkt_size: int = 64,
    n_packets: int = 8000,
) -> List[Tuple[int, float, float]]:
    """Throughput and loaded latency versus descriptor-ring depth.

    Small rings backpressure early (throughput loss); huge rings let
    queues build (latency) without adding throughput.
    """
    out = []
    for slots in sizes:
        config = CcnicConfig(ring_slots=slots, recycle_stack_max=1024)
        setup = build_interface(spec, InterfaceKind.CCNIC, config=config)
        inflight = min(384, max(8, slots // 2))
        result = run_point(setup, pkt_size, n_packets, inflight=inflight,
                           tx_batch=min(32, slots // 4) or 1,
                           rx_batch=min(32, slots // 4) or 1)
        out.append((slots, result.mpps, result.latency.median))
    return out


def recycle_stack_sweep(
    spec: PlatformSpec,
    depths: List[int],
    pkt_size: int = 64,
    n_packets: int = 8000,
    inflight: int = 256,
) -> List[Tuple[int, float, float]]:
    """Throughput versus per-side recycling-stack depth.

    Depths below the in-flight window force spills to the shared pool
    (cold reuse plus contended index lines); beyond it, returns flatten.
    Returns (depth, Mpps, stack hit fraction).
    """
    out = []
    for depth in depths:
        config = CcnicConfig(ring_slots=1024, recycle_stack_max=depth,
                             pool_buffers=8192)
        setup = build_interface(spec, InterfaceKind.CCNIC, config=config)
        result = run_point(setup, pkt_size, n_packets, inflight=inflight,
                           tx_batch=32, rx_batch=32)
        stats = setup.interface.pool.stats
        hits = stats.get("stack_alloc")
        total = hits + stats.get("shared_alloc")
        fraction = hits / total if total else 0.0
        out.append((depth, result.mpps, fraction))
    return out


def batching_matrix(
    spec: PlatformSpec,
    kind: InterfaceKind,
    batches: List[int],
    pkt_size: int = 64,
    n_packets: int = 6000,
) -> Dict[Tuple[int, int], float]:
    """Joint TX x RX batch-size grid (Fig 16 explores the axes only)."""
    out: Dict[Tuple[int, int], float] = {}
    for tx in batches:
        for rx in batches:
            setup = build_interface(spec, kind)
            result = run_point(setup, pkt_size, n_packets, inflight=256,
                               tx_batch=tx, rx_batch=rx)
            out[(tx, rx)] = result.mpps
    return out
