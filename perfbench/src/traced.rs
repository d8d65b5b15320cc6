//! The traced run: the scenario's own engine entry point, with the
//! source and every switch wrapped in the timing probes of
//! [`crate::probe`]. The wiring mirrors `ScenarioSpec::execute` and
//! `ScenarioSpec::execute_topology` line for line; the summary check
//! ([`crate::check::summary`]) proves the wrapped run simulated the same
//! thing.

use crate::check::{topology_counts, Outcome};
use crate::probe::{CallStats, SwitchProbe, TimedSource, TimedSwitch};
use accturbo_experiments::common::{baseline_fifo, simulate};
use accturbo_experiments::spec::{EdgeDefense, ScenarioSpec};
use accturbo_netsim::{
    run_topology, PacketSource, PushbackPlan, SingleQueueSwitch, Switch, Topology, TopologyConfig,
};
use accturbo_traffic::LeafPlacement;
use std::rc::Rc;
use std::time::Instant;

/// Seed of the root switch's sampler; node `i` uses `SWITCH_SEED + i`.
const SWITCH_SEED: u64 = 0x5EED_0100;

/// One traced simulation.
pub struct TracedRun {
    /// What the simulation produced.
    pub outcome: Outcome,
    /// Host wall time of the whole traced simulation, in ns.
    pub wall_ns: f64,
    /// The source's `next_packet` calls.
    pub source: CallStats,
    /// One probe per switch, indexed by topology node (one entry for the
    /// single-switch engine).
    pub switches: Vec<Rc<SwitchProbe>>,
    /// Index of the defended (bottleneck) switch in `switches`.
    pub root: usize,
}

/// The switches a scenario runs, as `ScenarioSpec::execute` and
/// `ScenarioSpec::execute_topology` build them: one defended switch, or
/// one per topology node with the defense at the root.
pub fn build_switches(spec: &ScenarioSpec) -> (Option<Topology>, Vec<Box<dyn Switch>>) {
    let Some(tspec) = &spec.topology else {
        return (None, vec![spec.defense.build(spec.link_bps)]);
    };
    let topo = tspec.build(spec.link_bps);
    let uplink = tspec.uplink(spec.link_bps);
    let switches = (0..topo.num_nodes())
        .map(|i| {
            if i == topo.root() {
                spec.defense.build(spec.link_bps)
            } else {
                match tspec.edges {
                    EdgeDefense::Fifo => Box::new(SingleQueueSwitch::new(baseline_fifo())),
                    EdgeDefense::Same => spec.defense.build(uplink),
                }
            }
        })
        .collect();
    (Some(topo), switches)
}

/// The scenario's packet source, plus the leaf placement a topology
/// spreads it with.
pub fn build_source(
    spec: &ScenarioSpec,
    topo: Option<&Topology>,
) -> (Box<dyn PacketSource>, Option<LeafPlacement>) {
    let src = spec.workload.build(spec.link_bps, spec.secs, spec.seed);
    let placement =
        spec.topology.as_ref().zip(topo).map(|(tspec, topo)| {
            LeafPlacement::new(topo.leaves().len(), tspec.attackers.as_deref())
        });
    (src, placement)
}

/// Runs `spec` with every layer boundary wrapped.
pub fn run(spec: &ScenarioSpec) -> TracedRun {
    let t0 = Instant::now();
    let (topo, switches) = build_switches(spec);
    let mut probes = Vec::with_capacity(switches.len());
    let mut switches: Vec<Box<dyn Switch>> = switches
        .into_iter()
        .enumerate()
        .map(|(i, inner)| {
            let (sw, probe) = TimedSwitch::new(inner, SWITCH_SEED + i as u64);
            probes.push(probe);
            Box::new(sw) as Box<dyn Switch>
        })
        .collect();
    let (src, placement) = build_source(spec, topo.as_ref());
    let mut src = TimedSource::new(src);
    let (outcome, root) = match (&spec.topology, topo, placement) {
        (Some(tspec), Some(topo), Some(placement)) => {
            let mut cfg = TopologyConfig::experiment(spec.secs, spec.effective_period());
            if tspec.pushback {
                cfg = cfg.with_pushback(PushbackPlan::new(tspec.refresh()));
            }
            let t = run_topology(
                &topo,
                &mut switches,
                &mut src,
                &mut |p| placement.place(p),
                &cfg,
            );
            let outcome = Outcome {
                topology: Some(topology_counts(
                    t.hops,
                    t.pushback_installs,
                    &t.node_first_limit,
                    topo.leaves(),
                )),
                backlog_pkts: t.backlog_pkts as u64,
                result: t.result,
            };
            (outcome, topo.root())
        }
        _ => {
            let sw = &mut *switches[0];
            let result = simulate(
                &mut src,
                sw,
                spec.link_bps,
                spec.secs,
                spec.effective_period(),
            );
            // Read past the probe so the end-of-run read is not counted
            // as an engine call.
            let calls = probes[0].other_calls.get();
            let backlog_pkts = sw.backlog_pkts() as u64;
            probes[0].other_calls.set(calls);
            let outcome = Outcome {
                result,
                backlog_pkts,
                topology: None,
            };
            (outcome, 0)
        }
    };
    TracedRun {
        wall_ns: t0.elapsed().as_nanos() as f64,
        outcome,
        source: src.next,
        switches: probes,
        root,
    }
}
