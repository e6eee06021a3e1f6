#!/usr/bin/env python
"""Micro-benchmarks for the simulator's host hot paths.

``repro bench`` measures end-to-end host throughput; this suite times
the individual substrate operations the tentpole optimizations target —
event-queue scheduling, Bloom-signature tests, cache lookups, H3 mask
memoization, mesh latency lookups and directory updates — so a
regression (or a win) is attributable to a specific layer.

Usage::

    PYTHONPATH=src python benchmarks/microbench.py [--json] [--quick]

Each benchmark is a closed loop over a fixed op count; the fastest of
three repetitions is reported (ops/sec), which filters scheduler noise
the same way ``repro bench`` does.  Numbers are host-specific: compare
them only across runs on the same machine (CI publishes them as an
artifact next to the BENCH file for exactly that purpose).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script
    _src = Path(__file__).resolve().parents[1] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.config import CacheConfig, MeshConfig, DirectoryConfig, SignatureConfig
from repro.interconnect.mesh import Mesh
from repro.mem.cache import SetAssocCache
from repro.mem.directory import Directory
from repro.sim.kernel import EventQueue
from repro.signatures.bloom import BloomSignature
from repro.signatures.hashes import H3HashFamily

#: best-of repetitions per benchmark
REPEATS = 3


def _best_of(fn, ops: int) -> float:
    """ops/sec for ``fn(ops)`` — fastest of :data:`REPEATS` runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(ops)
        best = min(best, time.perf_counter() - start)
    return ops / best


def bench_event_queue(ops: int) -> None:
    """schedule+run cycles through the kernel (mixed zero/nonzero delay).

    Uses ``schedule_fast`` — the fire-and-forget path the simulator's
    non-cancellable call sites take.
    """
    queue = EventQueue()
    fn = (lambda: None)
    batch = 64
    for _ in range(ops // batch):
        for i in range(batch):
            queue.schedule_fast(i & 3, fn)  # 1/4 zero-delay fast path
        queue.run()


def bench_bloom_test(ops: int) -> None:
    """membership tests against a populated 2 Kbit signature."""
    cfg = SignatureConfig()
    sig = BloomSignature(cfg.bits, cfg.hashes, cfg.seed)
    lines = [0x4000 + 64 * i for i in range(256)]
    for line in lines[:64]:
        sig.add(line)
    test = sig.test
    n = len(lines)
    for i in range(ops):
        test(lines[i % n])


def bench_cache_lookup(ops: int) -> None:
    """L1-geometry lookups, ~3:1 hit:miss."""
    cache = SetAssocCache(CacheConfig(size_bytes=32_768, ways=4, latency=1))
    from repro.mem.cache import CacheLineState
    resident = [i for i in range(384)]
    for line in resident:
        cache.insert(line, CacheLineState.SHARED)
    probe = resident + [100_000 + i for i in range(128)]
    lookup = cache.lookup
    n = len(probe)
    for i in range(ops):
        lookup(probe[i % n])


def bench_h3_mask(ops: int) -> None:
    """memoized H3 mask fetches (the conflict scan's per-line hash)."""
    cfg = SignatureConfig()
    family = H3HashFamily.shared(cfg.hashes, cfg.bits, cfg.seed)
    lines = [0x9000 + i for i in range(512)]
    mask = family.mask
    for line in lines:
        mask(line)  # fill the memo
    n = len(lines)
    for i in range(ops):
        mask(lines[i % n])


def bench_mesh_latency(ops: int) -> None:
    """core→bank latency lookups on the 4x4 mesh (precomputed tables)."""
    mesh = Mesh(16, MeshConfig())
    core_to_bank = mesh.core_to_bank
    for i in range(ops):
        core_to_bank(i & 15, i)


def bench_directory_update(ops: int) -> None:
    """owner/sharer recording plus holder queries."""
    directory = Directory(DirectoryConfig(), n_cores=16)
    record_owner = directory.record_owner
    holders = directory.holders
    for i in range(ops):
        line = i & 1023
        record_owner(line, i & 15)
        holders(line)


def bench_directory_probe(ops: int) -> None:
    """holder queries against wide sharer sets (invalidation fan-out).

    ``_invalidate_holders`` and the read path materialize the holder
    set of lines shared by many cores; this times that query shape with
    every tracked line held by all 16 cores.
    """
    directory = Directory(DirectoryConfig(), n_cores=16)
    for line in range(256):
        for core in range(16):
            directory.record_shared(line, core)
    holders = directory.holders
    for i in range(ops):
        holders(i & 255)


BENCHES = (
    ("event_queue_ops", bench_event_queue, 200_000),
    ("bloom_test_ops", bench_bloom_test, 500_000),
    ("cache_lookup_ops", bench_cache_lookup, 500_000),
    ("h3_mask_ops", bench_h3_mask, 500_000),
    ("mesh_latency_ops", bench_mesh_latency, 500_000),
    ("directory_update_ops", bench_directory_update, 200_000),
    ("directory_probe_ops", bench_directory_probe, 200_000),
)


def run_microbench(quick: bool = False) -> dict[str, float]:
    """All benchmarks; returns ``{name: ops_per_sec}``."""
    scale = 50 if quick else 1
    return {
        name: round(_best_of(fn, max(1000, ops // scale)), 1)
        for name, fn, ops in BENCHES
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true",
                        help="emit {name: ops_per_sec} JSON")
    parser.add_argument("--quick", action="store_true",
                        help="1/50th op counts (smoke-test mode)")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the JSON report to PATH")
    args = parser.parse_args(argv)
    results = run_microbench(quick=args.quick)
    doc = {
        "schema_version": 1,
        "quick": args.quick,
        "ops_per_s": results,
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        width = max(len(name) for name in results)
        for name, rate in results.items():
            print(f"{name:<{width}}  {rate:>14,.0f} ops/s")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
