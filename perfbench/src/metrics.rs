//! The metric names the benchmark reports, and the per-layer split of a
//! traced run. `BENCHMARK.json` lists the same names; a test holds the
//! two together.

use crate::probe::TimerCost;
use crate::replay::ReplayStats;
use crate::stats::{median, percentile};
use crate::traced::TracedRun;
use accturbo_experiments::spec::{DefenseSpec, ScenarioSpec};

/// Whether a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported by untraced runs (`--trace 0`). Units prefixed `sim_` are
/// simulated time; every other time is host time.
pub const END_TO_END: &[MetricDef] = &[
    def("pkts_per_s", "1/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("benign_kept_pct", "%", Higher),
    def("attack_drop_pct", "%", Higher),
    def("benign_delay_p99_ms", "sim_ms", Lower),
];

/// Reported by traced runs (`--trace 1`). A layer a workload does not run
/// reads 0 (see the README's layer table).
pub const PER_LAYER: &[MetricDef] = &[
    def("traffic.ns_per_pkt", "ns/pkt", Lower),
    def("traffic.busy_share", "fraction", Lower),
    def("netsim.loop_self_ns_per_pkt", "ns/pkt", Lower),
    def("netsim.switch_calls_per_pkt", "calls/pkt", Lower),
    def("netsim.max_backlog_pkts", "pkts", Lower),
    def("core.ingress_ns_p50", "ns/call", Lower),
    def("core.ingress_ns_p99", "ns/call", Lower),
    def("core.dequeue_ns_per_pkt", "ns/pkt", Lower),
    def("core.control_tick_us_p50", "us/tick", Lower),
    def("core.control_tick_us_p99", "us/tick", Lower),
    def("core.ingress_drop_ratio", "fraction", Lower),
    def("clustering.extract_ns_per_pkt", "ns/pkt", Lower),
    def("clustering.assign_ns_per_pkt", "ns/pkt", Lower),
    def("sched.assign_queues_us", "us/tick", Lower),
    def("sched.enqueue_ns_per_pkt", "ns/pkt", Lower),
    def("topology.loop_self_ns_per_pkt", "ns/pkt", Lower),
    def("topology.hops_per_pkt", "hops/pkt", Lower),
    def("acc.ingress_ns_per_pkt", "ns/pkt", Lower),
    def("acc.pushback_limits_us", "us/call", Lower),
    def("pushback.installs", "count", Lower),
    def("pushback.converge_s", "sim_s", Lower),
    def("setup.parse_us", "us/build", Lower),
    def("setup.build_switch_us", "us/build", Lower),
    def("setup.build_source_us", "us/build", Lower),
    def("trace.overhead_pct", "%", Lower),
];

/// The time split of one traced run, in ns over the whole run.
#[derive(Debug, Clone, Copy)]
pub struct Split {
    /// Traced wall time.
    pub wall_ns: f64,
    /// What the sampled timer reads themselves cost.
    pub timer_ns: f64,
    /// Inside `PacketSource::next_packet`.
    pub source_ns: f64,
    /// Inside `Switch` calls, all switches.
    pub switches_ns: f64,
    /// The rest: the event loop's own time.
    pub loop_self_ns: f64,
}

/// Splits a traced run's wall time into source, switches, timer and the
/// event loop's self time (what remains).
pub fn split(run: &TracedRun, timer: &TimerCost) -> Split {
    let timed = run.source.timed() + run.switches.iter().map(|p| p.timed()).sum::<u64>();
    let timer_ns = timed as f64 * timer.pair_ns;
    let source_ns = run.source.busy_ns(timer);
    let switches_ns = run.switches.iter().map(|p| p.busy_ns(timer)).sum::<f64>();
    Split {
        wall_ns: run.wall_ns,
        timer_ns,
        source_ns,
        switches_ns,
        loop_self_ns: run.wall_ns - timer_ns - source_ns - switches_ns,
    }
}

/// The per-layer metrics one traced run yields, as `(name, value)`.
/// Layers the scenario does not run are left out here and read 0 in the
/// report.
pub fn traced_layers(
    spec: &ScenarioSpec,
    run: &TracedRun,
    timer: &TimerCost,
) -> Vec<(&'static str, f64)> {
    let s = split(run, timer);
    let arrivals = run.outcome.result.arrivals.max(1) as f64;
    let root = &run.switches[run.root];
    let mut out = vec![
        (
            "traffic.ns_per_pkt",
            s.source_ns / run.source.calls.get().max(1) as f64,
        ),
        ("traffic.busy_share", s.source_ns / (s.wall_ns - s.timer_ns)),
    ];
    let mut ingress = root.ingress.corrected(timer);
    let mut ticks: Vec<f64> = root
        .control
        .corrected(timer)
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    out.extend([
        ("core.ingress_ns_p50", percentile(&mut ingress, 50.0)),
        ("core.ingress_ns_p99", percentile(&mut ingress, 99.0)),
        (
            "core.dequeue_ns_per_pkt",
            root.dequeue.busy_ns(timer) / root.dequeued.get().max(1) as f64,
        ),
        ("core.control_tick_us_p50", percentile(&mut ticks, 50.0)),
        ("core.control_tick_us_p99", percentile(&mut ticks, 99.0)),
        (
            "core.ingress_drop_ratio",
            root.ingress_drops.get() as f64 / root.ingress.calls.get().max(1) as f64,
        ),
    ]);
    match &run.outcome.topology {
        None => out.extend([
            ("netsim.loop_self_ns_per_pkt", s.loop_self_ns / arrivals),
            (
                "netsim.switch_calls_per_pkt",
                root.calls() as f64 / arrivals,
            ),
            ("netsim.max_backlog_pkts", root.max_backlog.get() as f64),
        ]),
        Some(t) => out.extend([
            ("topology.loop_self_ns_per_pkt", s.loop_self_ns / arrivals),
            ("topology.hops_per_pkt", t.hops as f64 / arrivals),
            ("pushback.installs", t.installs as f64),
            ("pushback.converge_s", t.converge_s.unwrap_or(0.0)),
        ]),
    }
    if matches!(spec.defense, DefenseSpec::Acc { .. }) {
        out.extend([
            ("acc.ingress_ns_per_pkt", root.ingress.mean_ns(timer)),
            ("acc.pushback_limits_us", root.pushback.mean_ns(timer) / 1e3),
        ]);
    }
    out
}

/// The replay's per-layer metrics.
pub fn replay_layers(r: &ReplayStats) -> Vec<(&'static str, f64)> {
    vec![
        ("clustering.extract_ns_per_pkt", r.extract_ns_per_pkt),
        ("clustering.assign_ns_per_pkt", r.assign_ns_per_pkt),
        ("sched.assign_queues_us", r.assign_queues_us),
        ("sched.enqueue_ns_per_pkt", r.enqueue_ns_per_pkt),
    ]
}

/// Collects `(name, value)` observations from several repeats and
/// reports each name's median.
#[derive(Debug, Default)]
pub struct Medians {
    values: Vec<(&'static str, Vec<f64>)>,
}

impl Medians {
    /// Adds one observation.
    pub fn push(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.values.push((name, vec![value])),
        }
    }

    /// Adds several observations.
    pub fn extend(&mut self, obs: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in obs {
            self.push(name, value);
        }
    }

    /// The mean of `name`'s observations, if any.
    pub fn mean(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.iter().sum::<f64>() / v.len() as f64)
    }

    /// The median of `name`'s observations, if any.
    pub fn median(&mut self, name: &str) -> Option<f64> {
        self.values
            .iter_mut()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| median(v))
    }
}
