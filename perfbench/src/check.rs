//! Running a scenario untraced through the real `ScenarioSpec` path, and
//! the output checks every run makes: packet conservation and a digest
//! of the deterministic summary.

use accturbo_experiments::cli::parse_run;
use accturbo_experiments::spec::ScenarioSpec;
use accturbo_netsim::{fnv1a64, ClassId, RunResult};
use accturbo_traffic::scenarios::ATTACK_CLASS;
use std::fmt::Write as _;

/// Parses a workload sentence at `seed` exactly as `xp run` does.
pub fn parse(sentence: &str, seed: u64) -> Result<ScenarioSpec, String> {
    let args: Vec<String> = sentence
        .split_whitespace()
        .map(str::to_string)
        .chain(std::iter::once(format!("seed={seed}")))
        .collect();
    let cmd = parse_run(&args)?;
    let spec = cmd.spec;
    // The traced run rebuilds these two paths around wrapped switches;
    // the fault plane and the sharded engine have no wrapped twin.
    if spec.faults.is_some() || spec.shards != 1 {
        return Err(format!(
            "`{sentence}`: faults= and shards= are not benchmarked"
        ));
    }
    Ok(spec)
}

/// What one simulation produced, reduced to what the checks and the
/// end-to-end metrics need.
#[derive(Debug)]
pub struct Outcome {
    /// The engine's result.
    pub result: RunResult,
    /// Packets still queued at the end of the run.
    pub backlog_pkts: u64,
    /// Topology runs: inter-switch hops, pushback installs, and the time
    /// the last leaf first received a pushback limit.
    pub topology: Option<TopologyCounts>,
}

/// The multi-switch counters of a topology run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyCounts {
    /// Inter-switch link crossings.
    pub hops: u64,
    /// Pushback limit messages delivered.
    pub installs: u64,
    /// Seconds until the last leaf that ever held a pushback limit first
    /// received one (`xp run`'s `pushback.converge_s`); `None` if no leaf
    /// did.
    pub converge_s: Option<f64>,
}

impl Outcome {
    /// Arrivals = delivered + dropped + queued.
    pub fn conserved(&self) -> bool {
        let r = &self.result;
        r.arrivals == r.departures + r.drops + self.backlog_pkts
    }
}

/// Runs the scenario untraced: `ScenarioSpec::execute` for one switch,
/// `ScenarioSpec::execute_topology` (which `execute` delegates to) for a
/// topology, so the hop and pushback counters are kept.
pub fn execute(spec: &ScenarioSpec) -> Outcome {
    match &spec.topology {
        None => {
            let o = spec.execute();
            Outcome {
                result: o.result,
                backlog_pkts: o.backlog_pkts as u64,
                topology: None,
            }
        }
        Some(tspec) => {
            let t = spec.execute_topology();
            let leaves = tspec.build(spec.link_bps).leaves().to_vec();
            Outcome {
                topology: Some(topology_counts(
                    t.hops,
                    t.pushback_installs,
                    &t.node_first_limit,
                    &leaves,
                )),
                backlog_pkts: t.backlog_pkts as u64,
                result: t.result,
            }
        }
    }
}

/// Reduces a topology result's per-node record to [`TopologyCounts`],
/// with the convergence time `xp run` reports.
pub fn topology_counts(
    hops: u64,
    installs: u64,
    first_limit: &[Option<accturbo_netsim::SimTime>],
    leaves: &[usize],
) -> TopologyCounts {
    let converge_s = leaves
        .iter()
        .filter_map(|&leaf| first_limit[leaf])
        .map(|t| t.as_secs_f64())
        .reduce(f64::max);
    TopologyCounts {
        hops,
        installs,
        converge_s,
    }
}

/// The benign and attack classes of a scenario. The Fig. 2/3 workloads
/// label their four benign aggregates 1–4 and the attack 5; every other
/// workload labels benign traffic 0 and each attack vector above it.
fn class_split(spec: &ScenarioSpec, res: &RunResult) -> (Vec<ClassId>, Vec<ClassId>) {
    match spec.workload.share_classes() {
        Some(classes) => classes.into_iter().partition(|&c| c != ATTACK_CLASS),
        None => (0..=res.stats.max_class())
            .map(ClassId)
            .partition(|c| c.is_benign()),
    }
}

/// The three simulated outcome metrics: benign bytes delivered as a
/// percentage of benign bytes offered, attack bytes dropped as a
/// percentage of attack bytes offered, and the worst benign class's 99th
/// percentile queueing delay in milliseconds.
pub fn defense_outcome(spec: &ScenarioSpec, res: &RunResult) -> (f64, f64, f64) {
    let (benign, attack) = class_split(spec, res);
    let pct = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    let bytes = |classes: &[ClassId], f: &dyn Fn(ClassId) -> u64| -> u64 {
        classes.iter().map(|&c| f(c)).sum()
    };
    let s = &res.stats;
    let kept = pct(
        bytes(&benign, &|c| s.total_departed(c).bytes),
        bytes(&benign, &|c| s.total_arrived(c).bytes),
    );
    let attack_drop = pct(
        bytes(&attack, &|c| s.total_dropped(c).bytes),
        bytes(&attack, &|c| s.total_arrived(c).bytes),
    );
    let p99_ms = benign
        .iter()
        .filter_map(|&c| res.delays.percentile(c, 99.0))
        .map(|d| d.as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    (kept, attack_drop, p99_ms)
}

/// The deterministic summary of a run: totals, per-class counters and
/// delay percentiles, the per-second per-class series, and the topology
/// counters. Two runs of the same scenario must render it byte for byte
/// alike, traced or not.
pub fn summary(outcome: &Outcome) -> String {
    let r = &outcome.result;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "arrivals={} departures={} drops={} backlog={} final_ns={}",
        r.arrivals,
        r.departures,
        r.drops,
        outcome.backlog_pkts,
        r.final_time.as_nanos()
    );
    let classes = 0..=r.stats.max_class();
    for c in classes.clone().map(ClassId) {
        let (a, d, x) = (
            r.stats.total_arrived(c),
            r.stats.total_departed(c),
            r.stats.total_dropped(c),
        );
        let pct = |p| r.delays.percentile(c, p).map(|d| d.as_nanos());
        let _ = writeln!(
            out,
            "class{} arrived={}/{} departed={}/{} dropped={}/{} delay_samples={} p50={:?} p99={:?} max={:?}",
            c.0,
            a.pkts,
            a.bytes,
            d.pkts,
            d.bytes,
            x.pkts,
            x.bytes,
            r.delays.samples(c),
            pct(50.0),
            pct(99.0),
            pct(100.0)
        );
    }
    for t in 0..r.stats.num_buckets() {
        let _ = write!(out, "t{t} drop_rate={:?}", r.stats.drop_rate(t));
        for c in classes.clone().map(ClassId) {
            let _ = write!(
                out,
                " {}:{:?}/{:?}",
                c.0,
                r.stats.arrival_bps(t, c),
                r.stats.throughput_bps(t, c)
            );
        }
        out.push('\n');
    }
    if let Some(t) = &outcome.topology {
        let _ = writeln!(
            out,
            "hops={} pushback_installs={} converge_s={:?}",
            t.hops, t.installs, t.converge_s
        );
    }
    out
}

/// FNV-1a digest of [`summary`].
pub fn digest(outcome: &Outcome) -> u64 {
    fnv1a64(summary(outcome).as_bytes())
}
