//! Benchmark-only crate. All content lives in `benches/`: the kernel
//! benches PRs A/B with (`sweep`, `eval`, `onepass`, `layout`,
//! `obs_overhead`), plus scaling, ablations and store operations. The
//! paper's figures are timed end to end by perfbench's `paper_grid`
//! workload; `repro` prints them.
