"""Fig. 5.10 -- Hamming-distance histograms of the vector ALUs.

Executes a GPGPU kernel on one HD 7970 SIMD unit (16 VALUs, 16k
outputs per lane as in the paper) and reports the per-VALU
successive-output Hamming histograms for the first six lanes plus the
homogeneity verdict across all sixteen -- the paper's evidence that
per-core timing speculation suffices on this architecture.
"""

from __future__ import annotations

from repro.analysis.report import Series

from .common import ExperimentResult, cached_experiment

__all__ = ["run"]


@cached_experiment("fig_5_10")
def run(
    kernel: str = "black_scholes",
    n_work_items: int = 4096,
    instructions_per_item: int = 128,
    n_shown: int = 6,
) -> ExperimentResult:
    # imported here: a warm cache hit never loads numpy or the GPGPU
    # model
    import numpy as np

    from repro.gpgpu import HD7970, analyze_valus

    gpu = HD7970()
    traces = gpu.characterize_simd(
        kernel, n_work_items=n_work_items,
        instructions_per_item=instructions_per_item,
    )
    analysis = analyze_valus(traces)

    bins = np.arange(33, dtype=float)
    series = [
        Series(f"VALU{i}", tuple(bins), tuple(analysis.histograms[i]))
        for i in range(n_shown)
    ]
    rows = [
        (
            f"VALU{i}",
            round(float(analysis.mean_distance[i]), 2),
            round(float(analysis.histograms[i].argmax()), 0),
        )
        for i in range(n_shown)
    ]
    return ExperimentResult(
        experiment_id="fig_5_10",
        title=f"Hamming-distance histograms of 6 VALUs ({kernel}, "
        f"{traces[0].n_outputs} outputs/lane)",
        headers=["lane", "mean Hamming distance", "mode bin"],
        rows=rows,
        series=series,
        notes={
            "max pairwise TV (16 lanes)": round(analysis.max_pairwise_tv, 3),
            "homogeneous": analysis.is_homogeneous,
            "paper": "graphs for the remaining 10 VALUs qualitatively similar;"
            " homogeneity means per-core TS works fine on GPGPUs",
        },
    )


if __name__ == "__main__":
    print(run().render())
