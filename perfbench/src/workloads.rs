//! The named workloads: each is an `xp run` scenario sentence, the seed
//! its figure uses, and the digest of its deterministic summary at that
//! seed (see [`crate::check`]).

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// The `xp run` sentence, without `seed=`.
    pub sentence: &'static str,
    /// The workload's canonical seed (its figure's default seed).
    pub canonical_seed: u64,
    /// Traffic seeds one run simulates: `--seed s` runs seeds
    /// `n·s … n·s + n − 1` in turn, and the outcome metrics are means
    /// over them. The more a workload's outcome varies from seed to seed,
    /// the more seeds it needs for a steady mean.
    pub seeds: u64,
    /// Host seconds one untraced repeat takes on the host the benchmark
    /// was written on, when that host runs slow (see [`Workload::repeats`]).
    pub repeat_s: f64,
    /// FNV-1a digest of the summary at `canonical_seed`. Every run
    /// re-executes the canonical seed once and fails on a mismatch, so a
    /// change that makes the simulation faster *and different* fails.
    pub digest: u64,
    /// Why the workload is in the benchmark. `BENCHMARK.json` gives it as
    /// `"{sentence}, canonical seed {canonical_seed}: {why}"`.
    pub why: &'static str,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
///
/// Seeds: Fig. 2's outcome does not depend on the seed; on
/// `star4_pushback` one seed's benign p99 delay moves by a quarter from
/// seed to seed, so it averages 24 (0.35 s each).
///
/// Lengths: Fig. 2 runs at `link=100m` (1.24 M packets) rather than the
/// 1g of ROADMAP's baseline (12.37 M). The packet mix and the cost per
/// packet stay the same; a repeat takes 0.2–0.8 s, so a 50 s run holds
/// 64 repeats or more, and its fastest repeat (what `pkts_per_s`
/// reports) is one of many.
///
/// The two workloads between them run every measured layer: ACC-Turbo's
/// clustering, control and queues on one switch, and the topology loop
/// with ACC pushback, which bypasses ACC-Turbo.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig2_accturbo",
        sentence: "workload=fig2 defense=accturbo link=100m",
        canonical_seed: 2022,
        seeds: 8,
        repeat_s: 0.75,
        digest: 0xf731_a4a3_50d2_abc4,
        why: "ACC-Turbo clustering and queueing dominate; the north-star scenario",
    },
    Workload {
        name: "star4_pushback",
        sentence: "workload=flood defense=acc topology=star:4:attackers=0+1:pushback=on",
        canonical_seed: 0x7AB,
        seeds: 24,
        repeat_s: 0.3,
        digest: 0x7be3_0738_397b_f22c,
        why: "the only multi-switch run: the topology loop and ACC hop-by-hop pushback",
    },
];

impl Workload {
    /// Untraced repeats of a run of `seconds`: as many as fit at
    /// [`Workload::repeat_s`] each, rounded down to whole rounds of the
    /// traffic seeds (at least one round). The count depends only on
    /// `seconds`, never on how fast the code runs, so an order statistic
    /// of the repeats is taken over the same sample size on every commit.
    pub fn repeats(&self, seconds: f64) -> usize {
        let seeds = self.seeds as usize;
        let fit = (seconds / self.repeat_s) as usize;
        (fit / seeds).max(1) * seeds
    }
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
