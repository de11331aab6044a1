"""Paper-vs-measured report generation.

The benchmark harness persists every reproduced figure as JSON under
``benchmarks/results/``.  This module turns those artifacts into the
per-figure comparison tables of ``EXPERIMENTS.md``: for each figure it
states the paper's claim, computes the corresponding statistic from the
measured series, and marks whether the claim's *shape* held.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from ..formats import DocumentError
from .reporting import SeriesResult

__all__ = ["load_result", "load_results", "Claim", "CLAIMS", "build_report"]


_FIELDS = ("figure", "title", "x_label", "y_label", "x", "series")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_result(path: str | Path) -> SeriesResult:
    """Load one figure's JSON artifact back into a SeriesResult.

    A file that is not a figure document raises :class:`DocumentError`
    naming the path and the cause.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON/encoding, too deep
        raise DocumentError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        missing = [key for key in _FIELDS if key not in data]
        if missing:
            raise ValueError(f"missing {', '.join(missing)}")
        series = data["series"]
        if not isinstance(series, dict) or not all(
            isinstance(ys, list) and all(map(_is_number, ys)) for ys in series.values()
        ):
            raise ValueError(f"series must map names to arrays of numbers, got {series!r}")
        if not isinstance(data["x"], list):
            raise ValueError(f"x must be an array, got {data['x']!r}")
        return SeriesResult(**{key: data[key] for key in _FIELDS}, notes=data.get("notes", ""))
    except ValueError as exc:  # SeriesResult checks each series' length
        raise DocumentError(f"malformed figure document {path}: {exc}") from exc


def load_results(
    results_dir: str | Path, figures: Iterable[str]
) -> dict[str, SeriesResult]:
    """Load the artifact ``{figure}.json`` of each figure that has one
    in a results directory, keyed by figure id.  Other documents in the
    directory (gate baselines, tables) are not read."""
    out: dict[str, SeriesResult] = {}
    for figure in figures:
        path = Path(results_dir) / f"{figure}.json"
        if path.is_file():
            out[figure] = load_result(path)
    return out


@dataclass(frozen=True)
class Claim:
    """One checkable claim: paper statement + measured statistic."""

    figure: str  # artifact stem the claim reads
    paper: str  # what the paper reports
    describe: Callable[[SeriesResult], str]  # measured statistic, formatted
    check: Callable[[SeriesResult], bool]  # did the shape hold?


def _speedups(r: SeriesResult, alg: str) -> list[float]:
    return r.speedup("sequential", alg)


CLAIMS: tuple[Claim, ...] = (
    Claim(
        "fig1",
        "two concurrent convs beat sequential below 128x128 inputs and "
        "lose beyond (crossover between 64 and 128)",
        lambda r: (
            f"ratio {r.value('ratio', 64):.2f} at 64, "
            f"{r.value('ratio', 128):.2f} at 128"
        ),
        lambda r: r.value("ratio", 64) < 1.0 < r.value("ratio", 128),
    ),
    Claim(
        "fig2",
        "NVLink platforms show a lower comm/comp ratio than the PCIe "
        "platform at every size",
        lambda r: (
            f"A40/NVLink {min(r.series['dual-A40 (NVLink)']):.2f}-"
            f"{max(r.series['dual-A40 (NVLink)']):.2f} vs V100S/PCIe "
            f"{min(r.series['dual-V100S (PCIe Gen3)']):.2f}-"
            f"{max(r.series['dual-V100S (PCIe Gen3)']):.2f}"
        ),
        lambda r: all(
            n < p
            for n, p in zip(
                r.series["dual-A40 (NVLink)"], r.series["dual-V100S (PCIe Gen3)"]
            )
        ),
    ),
    Claim(
        "fig7",
        "HIOS-LP speedup over sequential grows 1.4 -> 3.8 from 2 to 12 "
        "GPUs; HIOS-MR stays below ~1.5",
        lambda r: (
            f"HIOS-LP {_speedups(r, 'hios-lp')[0]:.2f} -> "
            f"{_speedups(r, 'hios-lp')[-1]:.2f}; HIOS-MR max "
            f"{max(_speedups(r, 'hios-mr')):.2f}"
        ),
        lambda r: _speedups(r, "hios-lp")[-1] > 2.5
        and max(_speedups(r, "hios-mr")) < 2.1,
    ),
    Claim(
        "fig8",
        "HIOS-LP holds 2.01-2.12x over sequential, 1.81-1.91x over IOS, "
        "1.51-1.54x over HIOS-MR across 100-400 operators",
        lambda r: (
            f"vs seq {min(_speedups(r, 'hios-lp')):.2f}-"
            f"{max(_speedups(r, 'hios-lp')):.2f}; vs MR "
            f"{min(a / b for a, b in zip(r.series['hios-mr'], r.series['hios-lp'])):.2f}-"
            f"{max(a / b for a, b in zip(r.series['hios-mr'], r.series['hios-lp'])):.2f}"
        ),
        lambda r: all(1.6 <= s <= 2.9 for s in _speedups(r, "hios-lp")),
    ),
    Claim(
        "fig9",
        "speedups decline as dependencies grow 400 -> 600 "
        "(LP 2.06 -> 1.64, MR 1.35 -> 1.19 over sequential)",
        lambda r: (
            f"LP {_speedups(r, 'hios-lp')[0]:.2f} -> "
            f"{_speedups(r, 'hios-lp')[-1]:.2f}; MR "
            f"{_speedups(r, 'hios-mr')[0]:.2f} -> "
            f"{_speedups(r, 'hios-mr')[-1]:.2f}"
        ),
        lambda r: _speedups(r, "hios-lp")[0] > _speedups(r, "hios-lp")[-1]
        and _speedups(r, "hios-mr")[0] > _speedups(r, "hios-mr")[-1],
    ),
    Claim(
        "fig10",
        "sequential/IOS/HIOS-MR flat across 6-22 layers; HIOS-LP "
        "improves as layers decrease (174 ms @6 vs 233 ms @22)",
        lambda r: (
            f"LP {r.series['hios-lp'][0]:.0f} ms @{r.x[0]} layers vs "
            f"{r.series['hios-lp'][-1]:.0f} ms @{r.x[-1]}; sequential "
            f"spread {max(r.series['sequential']) / min(r.series['sequential']):.2f}x"
        ),
        lambda r: r.series["hios-lp"][0] <= r.series["hios-lp"][-1] * 1.05
        and max(r.series["sequential"]) / min(r.series["sequential"]) < 1.2,
    ),
    Claim(
        "fig11",
        "HIOS-LP/sequential declines 2.23 -> 1.78 and HIOS-MR/sequential "
        "1.52 -> 1.10 as p grows 0.4 -> 1.2",
        lambda r: (
            f"LP {_speedups(r, 'hios-lp')[0]:.2f} -> "
            f"{_speedups(r, 'hios-lp')[-1]:.2f}; MR "
            f"{_speedups(r, 'hios-mr')[0]:.2f} -> "
            f"{_speedups(r, 'hios-mr')[-1]:.2f}"
        ),
        lambda r: _speedups(r, "hios-lp")[0] > _speedups(r, "hios-lp")[-1]
        and _speedups(r, "hios-mr")[0] > _speedups(r, "hios-mr")[-1],
    ),
    Claim(
        "fig12_inception",
        "HIOS-LP cuts Inception-v3 latency 6.1-19.7% vs sequential and "
        "3.3-16.5% vs IOS, widening with input size",
        lambda r: (
            f"vs seq {100 * (1 - r.series['hios-lp'][-1] / r.series['sequential'][-1]):.1f}% "
            f"and vs IOS {100 * (1 - r.series['hios-lp'][-1] / r.series['ios'][-1]):.1f}% "
            f"at the largest size"
        ),
        lambda r: r.series["hios-lp"][-1] < r.series["ios"][-1]
        and r.series["hios-lp"][-1] < r.series["sequential"][-1],
    ),
    Claim(
        "fig12_nasnet",
        "HIOS-LP cuts NASNet latency up to 14.5% vs sequential and up to "
        "11.1% vs IOS",
        lambda r: (
            f"vs seq {100 * (1 - r.series['hios-lp'][-1] / r.series['sequential'][-1]):.1f}% "
            f"and vs IOS {100 * (1 - r.series['hios-lp'][-1] / r.series['ios'][-1]):.1f}% "
            f"at the largest size"
        ),
        lambda r: r.series["hios-lp"][-1] <= r.series["ios"][-1]
        and r.series["hios-lp"][-1] < r.series["sequential"][-1],
    ),
    Claim(
        "fig13",
        "inter-GPU LP mapping dominates HIOS-LP's reduction at large "
        "inputs (98.2% for Inception, ~100% for NASNet; 81.6% at "
        "Inception's small input)",
        lambda r: "; ".join(
            f"{label}: "
            f"{100 * (r.value('sequential', label) - r.value('inter-lp', label)) / max(1e-9, r.value('sequential', label) - r.value('hios-lp', label)):.0f}%"
            for label in r.x
            if r.value("sequential", label) > r.value("hios-lp", label)
        ),
        lambda r: all(
            (r.value("sequential", label) - r.value("inter-lp", label))
            / max(1e-9, r.value("sequential", label) - r.value("hios-lp", label))
            > 0.8
            for label in r.x
            if "(large)" in str(label)
            and r.value("sequential", label) > r.value("hios-lp", label)
        ),
    ),
    Claim(
        "fig14_inception",
        "HIOS-LP/MR scheduling cost grows much slower with input size "
        "than IOS's (IOS profiles exponentially many candidate groups)",
        lambda r: (
            f"IOS {r.series['ios'][0]:.2f} -> {r.series['ios'][-1]:.2f} min; "
            f"HIOS-LP {r.series['hios-lp'][0]:.2f} -> "
            f"{r.series['hios-lp'][-1]:.2f} min"
        ),
        lambda r: r.series["ios"][-1] > 3 * r.series["hios-lp"][-1],
    ),
)


def build_report(results_dir: str | Path) -> str:
    """Markdown paper-vs-measured report from the figure artifacts its
    :data:`CLAIMS` name."""
    results = load_results(results_dir, (claim.figure for claim in CLAIMS))
    lines = [
        "| figure | paper claim | measured | shape holds |",
        "|---|---|---|---|",
    ]
    for claim in CLAIMS:
        result = results.get(claim.figure)
        if result is None:
            lines.append(f"| {claim.figure} | {claim.paper} | *(not run)* | — |")
            continue
        try:
            measured = claim.describe(result)
            ok = "yes" if claim.check(result) else "**no**"
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            measured, ok = f"*(error: {exc})*", "—"
        lines.append(f"| {claim.figure} | {claim.paper} | {measured} | {ok} |")
    return "\n".join(lines)
