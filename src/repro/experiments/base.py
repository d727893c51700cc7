"""Experiment framework: parameters, results, and formatting.

Every paper table/figure has a module here exposing
``run(params) -> ExperimentResult``.  Results are plain tabular data so
the same object can be printed by the CLI runner, asserted on by the
benchmark harness, and dumped into EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.workloads.spec_analogs import ACCURACY_SUITE, EVAL_SUITE


@dataclass(frozen=True)
class ExperimentParams:
    """Common knobs for all experiments.

    The defaults reproduce the committed EXPERIMENTS.md numbers; the
    benchmark harness uses smaller values via :meth:`quick`.

    ``n_refs``/``warmup`` stand in for the paper's 300M measured
    instructions after a 1B-instruction fast-forward: warmup references
    warm the caches/MCT/buffer, the remainder are measured.
    """

    n_refs: int = 150_000
    warmup: int = 50_000
    seed: int = 0
    suite: Optional[Sequence[str]] = None  # None -> experiment default

    def __post_init__(self) -> None:
        if self.n_refs <= 0:
            raise ValueError("n_refs must be positive")
        if not 0 <= self.warmup < self.n_refs:
            raise ValueError("warmup must be in [0, n_refs)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def bench_suite(self, default: Sequence[str]) -> List[str]:
        return list(self.suite) if self.suite is not None else list(default)

    @classmethod
    def quick(cls) -> "ExperimentParams":
        """Small parameters for CI-speed runs."""
        return cls(n_refs=40_000, warmup=12_000)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (used by the harness checkpoint manifest)."""
        return {
            "n_refs": self.n_refs,
            "warmup": self.warmup,
            "seed": self.seed,
            "suite": list(self.suite) if self.suite is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentParams":
        """Inverse of :meth:`to_dict`; re-runs all parameter validation."""
        suite = payload.get("suite")
        return cls(
            n_refs=int(payload["n_refs"]),  # type: ignore[arg-type]
            warmup=int(payload["warmup"]),  # type: ignore[arg-type]
            seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
            suite=[str(s) for s in suite] if suite is not None else None,  # type: ignore[union-attr]
        )


#: Default params used by the committed results.
DEFAULT_PARAMS = ExperimentParams()

#: Suites re-exported for convenience.
FULL_SUITE = ACCURACY_SUITE
SECTION5_SUITE = EVAL_SUITE


@dataclass
class ExperimentResult:
    """One table of results plus provenance."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    paper_reference: str = ""

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, expected {len(self.headers)}"
            )
        self.rows.append(list(cells))

    def row_dict(self, key_column: int = 0) -> Dict[object, List[object]]:
        """Rows keyed by one column (for assertions in tests/benches)."""
        return {row[key_column]: row for row in self.rows}

    def column(self, name: str) -> List[object]:
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def cell(self, row_key: object, column: str, key_column: int = 0) -> object:
        """Single cell by row key and column name."""
        return self.row_dict(key_column)[row_key][self.headers.index(column)]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: every table cell is str/int/float/bool, so the
        round-trip through :meth:`from_dict` is lossless."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
            "paper_reference": self.paper_reference,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict`; validates row widths on the way in."""
        result = cls(
            experiment_id=str(payload["experiment_id"]),
            title=str(payload["title"]),
            headers=[str(h) for h in payload["headers"]],  # type: ignore[union-attr]
            notes=[str(n) for n in payload.get("notes", [])],  # type: ignore[union-attr]
            paper_reference=str(payload.get("paper_reference", "")),
        )
        for row in payload.get("rows", []):  # type: ignore[union-attr]
            result.add_row(*row)
        return result


def format_result(result: ExperimentResult) -> str:
    """Render a result as a fixed-width ASCII table."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.2f}"
        return str(cell)

    table = [result.headers] + [[fmt(c) for c in row] for row in result.rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(result.headers))]

    def line(cells: List[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = [
        f"== {result.experiment_id}: {result.title} ==",
    ]
    if result.paper_reference:
        out.append(f"   ({result.paper_reference})")
    out.append(line(table[0]))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(r) for r in table[1:])
    for note in result.notes:
        out.append(f"note: {note}")
    return "\n".join(out)
