//! One benchmark run: set-up timing, the canonical-seed output check, then
//! repeats of the workload until the time is up.

use crate::check::{self, Outcome};
use crate::metrics::{self, Medians, MetricDef, END_TO_END, PER_LAYER};
use crate::probe::TimerCost;
use crate::stats::{self, median, percentile};
use crate::traced;
use crate::workloads::Workload;
use std::hint::black_box;
use std::time::Instant;

/// Fresh set-ups timed before each repeat.
pub const SETUP_BUILDS: usize = 64;

/// `setup_s` is this percentile of the run's `SETUP_BUILDS` × repeats
/// set-up times, and `pkts_per_s` the rate of its fastest repeat: both
/// read the code at the host's uncontended speed. This host's speed
/// wanders by up to 2× over seconds to minutes; over five runs per
/// workload the run medians of repeat rate and of build time spread by
/// 10–40% and 6–67% (quartile distance over median), the fastest repeat
/// by 4–10% and the 1st percentile of builds by 4–9%.
/// Both are taken over a sample whose size depends only on `--seconds`
/// (see [`Workload::repeats`]), so faster code does not get more draws.
pub const SETUP_PERCENTILE: f64 = 1.0;

/// The rate of the run's fastest repeat (see [`SETUP_PERCENTILE`]).
fn fastest_rate(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

/// An untraced run stops here, after however many repeats, so that it
/// exits well within three minutes even if the code became much slower.
pub const HARD_STOP_S: f64 = 150.0;

/// Fewest traced repeats, however long one takes.
pub const MIN_TRACED_REPEATS: usize = 3;

/// The traffic seeds of a run at `seed` (see [`Workload::seeds`]).
pub fn sub_seeds(w: &Workload, seed: u64) -> impl Iterator<Item = u64> {
    let n = w.seeds;
    (0..n).map(move |i| seed.wrapping_mul(n).wrapping_add(i))
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// The seed the measured repeats run at.
    pub seed: u64,
    /// How long to keep repeating, in seconds.
    pub seconds: f64,
    /// Traced run: report the per-layer split instead of the end-to-end
    /// metrics.
    pub trace: bool,
}

/// What a run reports.
#[derive(Debug)]
pub struct Report {
    /// Simulations executed.
    pub attempted: u64,
    /// Simulations that failed an output check.
    pub failed: u64,
    /// Why each failed simulation failed.
    pub failures: Vec<String>,
    /// Every metric of the run's table, with its value.
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

/// Fresh set-up times, in µs (see [`SETUP_PERCENTILE`]).
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Parsing the scenario sentence.
    pub parse_us: f64,
    /// Building the switch (every switch and the tree, for a topology).
    pub build_switch_us: f64,
    /// Building the packet source (and a topology's leaf placement).
    pub build_source_us: f64,
    /// All three in a row.
    pub total_us: f64,
}

/// Times of fresh set-ups: parse the sentence, build the switches, build
/// the source. Each build is dropped outside the timed span.
#[derive(Debug, Default)]
pub struct SetupSamples {
    parse: Vec<f64>,
    switch: Vec<f64>,
    source: Vec<f64>,
    total: Vec<f64>,
}

impl SetupSamples {
    /// Times `builds` fresh set-ups of `sentence` at `seed`.
    pub fn sample(&mut self, sentence: &str, seed: u64, builds: usize) -> Result<(), String> {
        for _ in 0..builds {
            let t0 = Instant::now();
            let spec = check::parse(sentence, seed)?;
            let t1 = Instant::now();
            let (topo, switches) = traced::build_switches(&spec);
            let t2 = Instant::now();
            let built = traced::build_source(&spec, topo.as_ref());
            let t3 = Instant::now();
            black_box((&switches, &built));
            let us = |a: Instant, b: Instant| (b - a).as_nanos() as f64 / 1e3;
            self.parse.push(us(t0, t1));
            self.switch.push(us(t1, t2));
            self.source.push(us(t2, t3));
            self.total.push(us(t0, t3));
        }
        Ok(())
    }

    /// The [`SETUP_PERCENTILE`] of each part, and of all three in a row.
    pub fn fastest(&mut self) -> SetupTimes {
        let p = |v: &mut Vec<f64>| percentile(v, SETUP_PERCENTILE);
        SetupTimes {
            parse_us: p(&mut self.parse),
            build_switch_us: p(&mut self.switch),
            build_source_us: p(&mut self.source),
            total_us: p(&mut self.total),
        }
    }
}

/// Counts simulations, and those that failed an output check with why.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Checks one simulation's conservation and, when given, its summary
    /// against `expected`; returns the summary.
    fn check(&mut self, what: &str, o: &Outcome, expected: Option<&str>) -> String {
        self.attempted += 1;
        let summary = check::summary(o);
        let mut why = Vec::new();
        if !o.conserved() {
            let r = &o.result;
            why.push(format!(
                "conservation violated: {} arrivals != {} delivered + {} dropped + {} queued",
                r.arrivals, r.departures, r.drops, o.backlog_pkts
            ));
        }
        if expected.is_some_and(|e| e != summary) {
            why.push("summary differs from the first untraced repeat's".to_string());
        }
        self.fail(what, why);
        summary
    }

    /// Counts a simulation as failed when `why` is not empty.
    fn fail(&mut self, what: &str, why: Vec<String>) {
        if !why.is_empty() {
            self.failed += 1;
            self.failures.push(format!("{what}: {}", why.join("; ")));
        }
    }
}

/// Runs the benchmark.
pub fn run(opts: &Options) -> Result<Report, String> {
    let w = opts.workload;
    let seeds: Vec<u64> = sub_seeds(w, opts.seed).collect();
    let specs = seeds
        .iter()
        .map(|&seed| check::parse(w.sentence, seed))
        .collect::<Result<Vec<_>, _>>()?;
    let canonical = check::parse(w.sentence, w.canonical_seed)?;
    let mut checks = Checks::default();

    // The output check against the recorded digest; also warms caches
    // and the allocator before anything is timed.
    let o = check::execute(&canonical);
    checks.attempted += 1;
    let mut why = Vec::new();
    if !o.conserved() {
        why.push("conservation violated".to_string());
    }
    let digest = check::digest(&o);
    if digest != w.digest {
        why.push(format!(
            "summary digest {digest:#018x}, recorded {:#018x}",
            w.digest
        ));
    }
    checks.fail(&format!("canonical seed {}", w.canonical_seed), why);

    let timer = opts.trace.then(TimerCost::calibrate);
    let repeats = (!opts.trace).then(|| w.repeats(opts.seconds));
    let start = Instant::now();
    let mut setup = SetupSamples::default();
    // Per traffic seed: the first untraced summary, which every later
    // repeat of that seed, traced or not, must reproduce byte for byte.
    let mut first: Vec<Option<String>> = vec![None; specs.len()];
    let mut outcomes = Medians::default();
    let (mut rates, mut rss) = (Vec::new(), Vec::new());
    let (mut untraced_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let mut layers = Medians::default();
    for i in 0.. {
        let cycle = Instant::now();
        let k = i % specs.len();
        let spec = &specs[k];
        setup.sample(w.sentence, seeds[k], SETUP_BUILDS)?;

        let rss_reset = stats::reset_peak_rss();
        let t = Instant::now();
        let o = check::execute(spec);
        let wall = t.elapsed();
        if rss_reset {
            rss.extend(stats::peak_rss_mb());
        }
        rates.push(o.result.arrivals as f64 / wall.as_secs_f64());
        untraced_ns.push(wall.as_nanos() as f64);
        let what = format!("seed {}", seeds[k]);
        let summary = checks.check(&what, &o, first[k].as_deref());
        if first[k].is_none() {
            first[k] = Some(summary);
            let (kept, attack_drop, p99_ms) = check::defense_outcome(spec, &o.result);
            outcomes.extend([
                ("benign_kept_pct", kept),
                ("attack_drop_pct", attack_drop),
                ("benign_delay_p99_ms", p99_ms),
            ]);
        }
        if let Some(timer) = &timer {
            let tr = traced::run(spec);
            checks.check(&format!("{what} traced"), &tr.outcome, first[k].as_deref());
            traced_ns.push(tr.wall_ns);
            layers.extend(metrics::traced_layers(spec, &tr, timer));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let done = match repeats {
            Some(n) => i + 1 >= n || elapsed > HARD_STOP_S,
            // Stop before a further repeat would overrun the time.
            None => {
                i + 1 >= MIN_TRACED_REPEATS
                    && elapsed + cycle.elapsed().as_secs_f64() > opts.seconds
            }
        };
        if done {
            break;
        }
    }
    let setup = setup.fastest();

    let mut values = Medians::default();
    if let Some(timer) = &timer {
        if let Some(replayed) = crate::replay::replay(&specs[0], timer) {
            layers.extend(metrics::replay_layers(&replayed));
        }
        layers.extend([
            ("setup.parse_us", setup.parse_us),
            ("setup.build_switch_us", setup.build_switch_us),
            ("setup.build_source_us", setup.build_source_us),
            (
                "trace.overhead_pct",
                100.0 * (median(&mut traced_ns) / median(&mut untraced_ns) - 1.0),
            ),
        ]);
        values = layers;
    } else {
        values.extend([
            ("pkts_per_s", fastest_rate(&rates)),
            ("setup_s", setup.total_us / 1e6),
            ("peak_rss_mb", median(&mut rss)),
        ]);
        for name in ["benign_kept_pct", "attack_drop_pct", "benign_delay_p99_ms"] {
            values.push(name, outcomes.mean(name).expect("every seed ran"));
        }
    }
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|m| (m, values.median(m.name).unwrap_or(0.0)))
        .collect();
    Ok(Report {
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        metrics,
    })
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
