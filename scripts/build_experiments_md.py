"""Build EXPERIMENTS.md from the benchmarks/results_full artifacts."""

import pathlib

from repro.experiments.summary import build_report, load_results

RESULTS = pathlib.Path("benchmarks/results_full")

HEADER = """# EXPERIMENTS — paper vs. reproduction

Every figure of the paper's evaluation (Sections II, V and VI),
regenerated by this repository.  Absolute numbers are not expected to
match (the substrate is a calibrated simulator, not the authors'
dual-A40 testbed); the *shapes* — who wins, by roughly what factor,
where crossovers fall — are the reproduction targets, and the claim
table below checks each one mechanically.

* Configuration: full sweeps, 10 random instances per simulation data
  point (the paper uses 30; stds are reported alongside means in the
  artifact files).  Regenerate with
  `REPRO_FULL=1 pytest benchmarks/ --benchmark-only`
  (30 instances) or `python -m repro run <figure>`.
* Artifacts: `benchmarks/results_full/*.txt` (tables, with ±std) and
  `*.json` (machine-readable; consumed by `python -m repro report`).
* All simulation latencies are the analytic evaluator's (Section III
  semantics, sender-blocking sends); all Section VI latencies are
  measured by the discrete-event engine.

## Claim-by-claim summary

"""

COMMENTARY = {
    "fig1": (
        "Paper (Fig. 1): two identical 48-ch 5x5 convs run concurrently "
        "beat sequential execution for inputs <= 64x64 and lose beyond "
        "128x128 on an A40.\n\nReproduced: ratio 0.575 at small sizes "
        "(near-perfect overlap plus stream overhead), 0.66 at 64, and "
        "1.22 from 128 up — crossover in the same place; our saturated "
        "ratio is slightly above the paper's ~1.1 because the stream "
        "overhead constant also serves the real-model calibration."
    ),
    "fig2": (
        "Paper (Fig. 2): the transfer/computation ratio is never "
        "negligible, and NVLink platforms sit well below the PCIe "
        "V100S pair.\n\nReproduced: the A40/A5500 NVLink curves settle "
        "near 0.56-0.61 while PCIe stays near 0.95-1.0; small inputs "
        "are latency-dominated on every platform, exactly the measured "
        "trend."
    ),
    "fig7": (
        "Paper: HIOS-LP's speedup over sequential grows 1.4 -> 3.8 "
        "from 2 to 12 GPUs; HIOS-MR plateaus at <= 1.5; IOS ~1.1 flat."
        "\n\nReproduced: sequential 412 ms (paper ~411 ms) and IOS "
        "362 ms (paper ~371 ms) — near-exact absolute agreement on the "
        "single-GPU baselines; HIOS-LP 1.49x -> 3.3x, HIOS-MR plateau "
        "~1.7x.  LP scales, MR stalls, same crossings."
    ),
    "fig8": (
        "Paper: HIOS-LP holds 2.01-2.12x over sequential and "
        "1.81-1.91x over IOS across 100-400 operators; Alg. 2 "
        "contributes 5.7-7.7% on LP and 13.3-14.6% on MR mappings."
        "\n\nReproduced: LP ~2.2-2.4x over sequential and ~2.0-2.2x "
        "over IOS, steady across sizes; the intra-GPU pass adds ~4-6% "
        "on LP and ~5-8% on MR — the MR contribution is below the "
        "paper's band (our MR mappings leave less co-located "
        "parallelism), the LP one matches."
    ),
    "fig9": (
        "Paper: with dependencies growing 400 -> 600, HIOS-LP's "
        "speedup declines 2.06 -> 1.64 and HIOS-MR's 1.35 -> 1.19."
        "\n\nReproduced: LP ~2.3 -> 1.7, MR ~1.65 -> 1.25 — same "
        "slopes, slightly higher absolute speedups."
    ),
    "fig10": (
        "Paper: sequential/IOS/HIOS-MR stay flat (~411/371/305 ms) "
        "across 6-22 layers while HIOS-LP improves from 233 ms at 22 "
        "layers to 174 ms at 6 — self-adaptivity to model parallelism."
        "\n\nReproduced: sequential is flat to within 0.5% and HIOS-MR "
        "within ~4%; IOS drifts ~9% (beam pruning explores wide layers "
        "less evenly); HIOS-LP's latency falls monotonically as layers "
        "decrease (189 -> 170 ms).  Our LP trend is shallower than the "
        "paper's 233 -> 174 (the sender-blocking comm budget, not GPU "
        "count, binds first at width ~33)."
    ),
    "fig11": (
        "Paper: as p grows 0.4 -> 1.2, HIOS-LP/sequential declines "
        "2.23 -> 1.78 and HIOS-MR/sequential 1.52 -> 1.10 (HIOS-MR "
        "drops below IOS at p = 1.2).\n\nReproduced: LP ~2.9 -> 1.9, "
        "MR ~2.2 -> 1.2, monotone in p as in the paper; our absolute "
        "speedups run higher at small p."
    ),
    "fig12_inception": (
        "Paper (Fig. 12a): HIOS-LP cuts Inception-v3 latency "
        "6.1-19.7% vs sequential and 3.3-16.5% vs IOS, widening with "
        "input size.\n\nReproduced (engine-measured, dual A40): ~25% "
        "vs sequential at the default size and ~19% at 2048^2; vs IOS "
        "the margin grows from ~1% at 299^2 to ~18% at the largest "
        "inputs — same ordering and same widening, with IOS's "
        "small-input gain larger than the paper's (our concurrency "
        "model under-penalizes stacks of tiny kernels)."
    ),
    "fig12_nasnet": (
        "Paper (Fig. 12b): up to 14.5% vs sequential and up to 11.1% "
        "vs IOS for NASNet.\n\nReproduced: 13.6% vs sequential at the "
        "default size, shrinking to ~3-4% at the largest (NASNet's "
        "dense dependencies leave little to spread once every operator "
        "saturates); vs IOS, 0.9-3.4%.  IOS itself degenerates to "
        "sequential from 896^2 up — no concurrent group is profitable "
        "once kernels saturate, the paper's Section II premise.  "
        "HIOS-MR is *worse than sequential* at large inputs — an "
        "amplified version of the paper's "
        "MR-pays-unnecessary-communication finding."
    ),
    "fig13": (
        "Paper (Fig. 13): HIOS-LP's reduction is 9.9x/4.5x IOS's "
        "reduction for Inception large/small; LP-based inter-GPU "
        "mapping accounts for 98.2%/81.6% of HIOS-LP's total gain "
        "(Inception large/small) and ~100% for NASNet; HIOS-LP is "
        "5.4% *worse* than IOS for NASNet-small.\n\nReproduced: the "
        "inter-GPU share of HIOS-LP's gain is ~98-100% at large "
        "inputs, matching; at small inputs the share drops to "
        "~35-60% (paper: 81.6%) — our Alg. 2 pass matters more there. "
        "And at small inputs our HIOS-LP ends at parity with IOS "
        "(slightly ahead) rather than 5.4% behind — our engine "
        "charges IOS's wide stages a launch serialization the paper's "
        "single-GPU engine apparently avoided."
    ),
    "fig14_inception": (
        "Paper (Fig. 14a): HIOS-LP schedules Inception-v3 in under 20 "
        "minutes even at large inputs, while IOS's cost climbs "
        "steeply.\n\nReproduced (profiling billed at 36 reps per "
        "measurement + algorithm wall time): IOS's bill grows ~40x "
        "across the sweep vs ~10x for HIOS-LP, and IOS costs >5x "
        "HIOS-LP at the largest size.  Absolute minutes are smaller "
        "than the paper's (our pruned IOS profiles fewer candidate "
        "groups than the authors' implementation)."
    ),
    "fig14_nasnet": (
        "Paper (Fig. 14b): HIOS-LP's scheduling time is up to 55.8% "
        "less than IOS's for NASNet at large inputs.\n\nReproduced: "
        "HIOS-LP's bill is far below IOS's at every size (well beyond "
        "the paper's 55.8% at the largest input, for the same "
        "pruned-IOS reason)."
    ),
}

WORKED = """## Worked examples (Figs. 4-6)

The paper's walk-throughs are regression-tested rather than benched
(`tests/core/test_paper_examples.py`):

* **Fig. 4** — on the 8-operator graph, HIOS-LP extracts exactly
  `v1 v2 v4 v6 v8`, then `v3 v5` (rejecting the longer candidate
  through `v7` whose interior touches the scheduled `v6`), then `v7`;
  both later paths map to GPU 2 and the final latency equals the
  brute-force optimum.
* **Fig. 5** — Alg. 2 with window 2 groups `{v2, v4}` and `{v5, v7}`
  and improves the given schedule strictly (14 -> 10 ms with our
  weights; the paper's 18 -> 16 with its unpublished weights).
* **Fig. 6** — Alg. 3 on the same graph reaches the same optimum with
  `v1` pinned to GPU 1.

## Ablations (beyond the paper)

`benchmarks/bench_ablations.py` writes these alongside the figures:
sender-blocking vs pure-delay communication (the load-bearing
modeling decision — see `docs/costmodel.md`), Alg. 2 window size, IOS
beam width, the `t_sat` occupancy calibration, heterogeneous fleets,
and HIOS-LP local-search headroom.

## Known deviations

1. **NASNet-small (Fig. 13b)**: the paper's HIOS-LP is 5.4% slower
   than IOS; ours is at parity.  Our engine serializes kernel launches
   within wide stages, which costs IOS on 374 tiny kernels as much as
   the MPI launch-after-transfer costs HIOS-LP.
2. **IOS small-input gains (Figs. 12/13)**: larger than the paper's
   (~20% vs ~5%).  The saturation concurrency model under-penalizes
   many-way concurrency of tiny kernels even with the stream-overhead
   term.
3. **Alg. 2 contribution on HIOS-MR mappings (Fig. 8)**: ~5-8% vs the
   paper's 13.3-14.6%.
4. **Absolute scheduling-cost minutes (Fig. 14)** are lower across the
   board; only the growth shapes are comparable.
"""


FIGURES = (
    "fig1",
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12_inception",
    "fig12_nasnet",
    "fig13",
    "fig14_inception",
    "fig14_nasnet",
)


def main() -> None:
    results = load_results(RESULTS, FIGURES)
    parts = [HEADER, build_report(RESULTS), "\n\n## Per-figure detail\n"]
    for stem in FIGURES:
        parts.append(f"\n### {stem}\n")
        if stem in COMMENTARY:
            parts.append(COMMENTARY[stem] + "\n")
        if stem in results:
            parts.append("\n```\n" + results[stem].to_text() + "\n```\n")
        else:
            parts.append("\n*(artifact missing — run the benches)*\n")
    parts.append("\n" + WORKED)
    pathlib.Path("EXPERIMENTS.md").write_text("".join(parts))
    print("EXPERIMENTS.md written")


if __name__ == "__main__":
    main()
