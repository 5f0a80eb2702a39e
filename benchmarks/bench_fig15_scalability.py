"""Fig. 15 — scalability with the number of PEs (512 / 768 / 1024).

Claims checked: the baseline's utilization drops as PEs grow (fewer rows
per PE to average out imbalance) so its performance scales sub-linearly;
local+remote holds utilization roughly flat and scales near-linearly;
local-only sits in between.
"""

from conftest import run_once, save_artifact

from repro.analysis import fig15_scalability

PE_COUNTS = (512, 768, 1024)


def test_fig15_scalability(benchmark, bench_preset, bench_seed):
    rows, text = run_once(
        benchmark,
        fig15_scalability,
        preset=bench_preset,
        seed=bench_seed,
        pe_counts=PE_COUNTS,
    )
    save_artifact("fig15_scalability", rows, text)

    table = {(r["dataset"], r["variant"], r["n_pes"]): r for r in rows}
    datasets = sorted({r["dataset"] for r in rows})

    for name in datasets:
        # Full rebalancing always at least matches the other variants'
        # performance at the largest PE count.
        top = PE_COUNTS[-1]
        both = table[(name, "local+remote", top)]
        base = table[(name, "baseline", top)]
        local = table[(name, "local", top)]
        assert both["total_cycles"] <= local["total_cycles"]
        assert local["total_cycles"] <= base["total_cycles"]

        # Utilization at scale: local+remote >= local >= baseline.
        assert both["utilization"] >= local["utilization"] - 0.02
        assert local["utilization"] >= base["utilization"] - 0.02

    # On the skewed graphs the baseline's utilization *degrades* as PEs
    # grow, while local+remote stays within a few points of its 512-PE
    # value — the paper's headline scalability claim. This comparison
    # needs enough rows per PE for rebalancing to have moves available:
    # Cora/Citeseer at 1024 PEs have ~3 rows per PE, where single heavy
    # rows exceed the ideal share and *no* row migration can help (a
    # granularity limit the model makes explicit).
    from repro.datasets import load_dataset

    for name in datasets:
        if name == "reddit":
            continue  # already balanced; nothing to degrade
        ds = load_dataset(name, bench_preset, seed=bench_seed)
        if ds.n_nodes / 1024 < 16:
            continue  # granularity-bound at the largest PE count
        base_drop = (
            table[(name, "baseline", 512)]["utilization"]
            - table[(name, "baseline", 1024)]["utilization"]
        )
        both_drop = (
            table[(name, "local+remote", 512)]["utilization"]
            - table[(name, "local+remote", 1024)]["utilization"]
        )
        assert base_drop >= both_drop - 0.05, name

    # Near-linear scaling of the full design: 1024 PEs deliver at least
    # 1.5x the 512-PE throughput (ideal: 2x) wherever rows-per-PE leave
    # the rebalancer room to work (same granularity caveat as above).
    for name in datasets:
        ds = load_dataset(name, bench_preset, seed=bench_seed)
        if ds.n_nodes / 1024 < 16:
            continue
        ratio = (
            table[(name, "local+remote", 512)]["total_cycles"]
            / table[(name, "local+remote", 1024)]["total_cycles"]
        )
        assert ratio > 1.45, name
