"""``python -m repro.mrc`` — miss-ratio curves from the command line.

Builds the named synthetic workloads (same generators as the paper
experiments), runs the exact single-pass engine — or SHARDS sampling
when ``--rate``/``--max-blocks`` is given — and prints one curve per
workload.  ``--assoc`` additionally prints the per-size
compulsory/capacity/conflict split at that associativity, and
``--check`` cross-validates every exact point against the brute-force
per-size FA-LRU simulation (the CI smoke job runs this; any mismatch
exits non-zero).  Bad flag values exit 2 with a usage error naming the
flag, checked by the same code the library runs them through.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.argtypes import at_least, checked
from repro.mrc.curve import (
    MissRatioCurve,
    brute_force_fa_misses,
    curve_from_profile,
    default_size_ladder,
)
from repro.mrc.decompose import ConflictSplit, conflict_decomposition
from repro.mrc.sampling import SampleResult, ShardsEstimator, sampled_curve
from repro.mrc.stack import StackProfile, compute_profile
from repro.workloads.spec_analogs import EVAL_SUITE, build


def _parse_sizes(spec: str, line_size: int) -> Tuple[int, ...]:
    """Comma-separated capacities in KB -> line counts."""
    sizes: List[int] = []
    for part in spec.split(","):
        kb = int(part.strip())
        if kb <= 0:
            raise ValueError(f"cache size must be positive, got {kb}KB")
        size_bytes = kb * 1024
        if size_bytes % line_size != 0:
            raise ValueError(
                f"{kb}KB is not a whole number of {line_size}B lines"
            )
        sizes.append(size_bytes // line_size)
    return tuple(sizes)


def _check_exact(
    addresses: "Sequence[int]", curve: MissRatioCurve
) -> List[str]:
    """Brute-force cross-validation; returns one message per mismatch."""
    problems: List[str] = []
    for i, size in enumerate(curve.sizes_lines):
        expected = brute_force_fa_misses(addresses, curve.line_size, size)
        if curve.misses[i] != expected:
            problems.append(
                f"size {curve.size_bytes(i) // 1024}KB: single-pass "
                f"{curve.misses[i]} != brute-force {expected}"
            )
    return problems


def _curve_payload(name: str, curve: MissRatioCurve) -> Dict[str, object]:
    return {
        "workload": name,
        "exact": curve.exact,
        "line_size": curve.line_size,
        "total_refs": curve.total_refs,
        "cold_misses": curve.cold_misses,
        "points": [
            {"size_bytes": b, "misses": m, "miss_ratio": r}
            for b, m, r in curve.as_rows()
        ],
    }


def _split_payload(split: ConflictSplit) -> Dict[str, object]:
    return {
        "size_bytes": split.size_bytes,
        "assoc": split.assoc,
        "misses": split.misses,
        "compulsory": split.compulsory,
        "capacity": split.capacity,
        "conflict": split.conflict,
        "miss_rate": split.miss_rate,
        "conflict_share": split.conflict_share,
    }


def _print_curve(name: str, curve: MissRatioCurve) -> None:
    kind = "exact" if curve.exact else "sampled"
    print(
        f"{name}: {curve.total_refs} refs, {curve.cold_misses} distinct "
        f"lines ({kind})"
    )
    print("  size KB   misses   miss ratio")
    for size_bytes, misses, ratio in curve.as_rows():
        print(f"  {size_bytes // 1024:>7} {misses:>8}   {ratio:.4f}")


def _print_splits(splits: Sequence[ConflictSplit]) -> None:
    print(f"  decomposition at assoc {splits[0].assoc}:")
    print("  size KB   misses     comp      cap     conf   conf share %")
    for s in splits:
        print(
            f"  {s.size_bytes // 1024:>7} {s.misses:>8} {s.compulsory:>8} "
            f"{s.capacity:>8} {s.conflict:>8}   {s.conflict_share:>10.1f}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.mrc",
        description="Miss-ratio curves via a single stack-distance pass "
        "(exact) or SHARDS sampling (approximate).",
    )
    parser.add_argument(
        "workloads",
        nargs="*",
        # An empty trace runs the generator's name check for nothing.
        type=checked(str, lambda name: build(name, 0)),
        default=list(EVAL_SUITE),
        help=f"workload names (default: {' '.join(EVAL_SUITE)})",
    )
    parser.add_argument("--n-refs", type=at_least(0), default=100_000)
    parser.add_argument("--seed", type=at_least(0), default=0)
    parser.add_argument(
        "--line-size",
        type=checked(int, lambda size: compute_profile([], size)),
        default=64,
    )
    parser.add_argument(
        "--sizes",
        default=None,
        help="comma-separated cache sizes in KB (default: 1..256, powers "
        "of two)",
    )
    parser.add_argument(
        "--assoc",
        type=int,
        default=None,
        help="also print the compulsory/capacity/conflict split at this "
        "associativity",
    )
    sampling = parser.add_argument_group("SHARDS sampling")
    mode = sampling.add_mutually_exclusive_group()
    mode.add_argument(
        "--rate",
        type=checked(float, lambda rate: ShardsEstimator(rate=rate)),
        default=None,
        help="fixed-rate spatial sampling rate in (0, 1]",
    )
    mode.add_argument(
        "--max-blocks",
        type=checked(int, lambda blocks: ShardsEstimator(max_blocks=blocks)),
        default=None,
        help="fixed-size sampling: bound on distinct sampled blocks",
    )
    sampling.add_argument(
        "--sample-seed",
        type=int,
        default=0,
        help="seed for the deterministic sampling hash",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="cross-validate every exact point against a brute-force "
        "per-size FA-LRU simulation (exit 1 on any mismatch)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of tables"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sampled = args.rate is not None or args.max_blocks is not None
    if args.check and sampled:
        print(
            "--check validates the exact engine; drop --rate/--max-blocks",
            file=sys.stderr,
        )
        return 2
    # --sizes and --assoc are checked against --line-size, so only after
    # parsing; an empty address stream runs the decomposition's checks.
    try:
        sizes = (
            _parse_sizes(args.sizes, args.line_size)
            if args.sizes is not None
            else default_size_ladder(args.line_size)
        )
    except ValueError as exc:
        parser.error(f"argument --sizes: {exc}")
    if args.assoc is not None:
        try:
            conflict_decomposition(
                [], assoc=args.assoc, line_size=args.line_size, sizes_lines=sizes
            )
        except ValueError as exc:
            parser.error(f"argument --assoc: {exc}")

    payloads: List[Dict[str, object]] = []
    failures = 0
    for name in args.workloads:
        trace = build(name, args.n_refs, args.seed)
        profile: Optional[StackProfile] = None
        if sampled:
            result: SampleResult = sampled_curve(
                trace.addresses,
                args.line_size,
                sizes,
                rate=args.rate,
                max_blocks=args.max_blocks,
                seed=args.sample_seed,
            )
            curve = result.curve
        else:
            profile = compute_profile(trace.addresses, args.line_size)
            curve = curve_from_profile(profile, sizes)
        payload = _curve_payload(name, curve)
        if sampled:
            payload["final_rate"] = result.final_rate
            payload["sampled_refs"] = result.sampled_refs

        if args.check:
            problems = _check_exact(trace.addresses.tolist(), curve)
            payload["check"] = "ok" if not problems else problems
            if problems:
                failures += 1
                for message in problems:
                    print(f"CHECK FAILED {name}: {message}", file=sys.stderr)

        if args.assoc is not None:
            splits = conflict_decomposition(
                trace.addresses,
                assoc=args.assoc,
                line_size=args.line_size,
                sizes_lines=sizes,
                profile=profile,
            )
            payload["decomposition"] = [_split_payload(s) for s in splits]
        payloads.append(payload)

        if not args.json:
            _print_curve(name, curve)
            if sampled:
                print(
                    f"  sampled {result.sampled_refs} refs, final rate "
                    f"{result.final_rate:.4f}, seed {result.seed}"
                )
            if args.check:
                print(f"  check vs brute force: {'FAIL' if problems else 'ok'}")
            if args.assoc is not None:
                _print_splits(splits)

    if args.json:
        print(json.dumps(payloads, indent=2))
    if failures:
        return 1
    if args.check and not args.json:
        print(f"all {len(payloads)} workloads byte-identical to brute force")
    return 0
