//! Replays a scenario's packets through the public clustering, control
//! and queue APIs the ACC-Turbo switch is built from, timing each stage
//! on its own: `FeatureSet::extract_into`, `OnlineClusterer::assign_values`
//! (the rest of `OnlineClusterer::assign`), `Controller::assign_queues_into`
//! per control tick, and `PriorityBank::enqueue_to`.
//!
//! The replay is a model of the switch, not the switch: the link is
//! emulated by draining the bank at line rate between arrivals, so queue
//! occupancy and drops follow the real run closely but not exactly. It
//! runs outside the simulation, so nothing it does can perturb the
//! simulated output.

use crate::probe::{sampled, CallStats, Sampler, TimerCost};
use crate::stats::median;
use accturbo_clustering::{OnlineClusterer, WindowStats};
use accturbo_experiments::spec::{DefenseSpec, ScenarioSpec};
use accturbo_netsim::{Packet, PriorityBank, QueueDiscipline, SimDuration, SimTime};
use accturbo_sched::Controller;
use std::time::Instant;

/// Packets per timed extract / assign batch.
const BATCH: usize = 1024;

/// Per-stage timings of one replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayStats {
    /// Packets replayed.
    pub pkts: u64,
    /// Feature extraction, ns per packet.
    pub extract_ns_per_pkt: f64,
    /// Cluster assignment, ns per packet.
    pub assign_ns_per_pkt: f64,
    /// `assign_queues_into`, median µs per control tick.
    pub assign_queues_us: f64,
    /// `enqueue_to`, mean ns per call.
    pub enqueue_ns_per_pkt: f64,
}

/// Replays every packet the scenario's source yields before its end time,
/// with the switch's own configuration; `None` when the scenario's
/// defense is not ACC-Turbo, which runs none of these stages.
pub fn replay(spec: &ScenarioSpec, timer: &TimerCost) -> Option<ReplayStats> {
    let DefenseSpec::AccTurbo(acc) = &spec.defense else {
        return None;
    };
    let cfg = acc.config();
    let period = spec
        .effective_period()
        .unwrap_or_else(|| acc.control_period());
    let features = cfg.clustering.features.clone();
    let mut clusterer = OnlineClusterer::new(cfg.clustering.clone());
    let mut controller = Controller::new(cfg.ranking, cfg.num_queues);
    let mut bank = PriorityBank::new(cfg.num_queues, cfg.queue_capacity_bytes);
    if let Some(shared) = cfg.shared_capacity_bytes {
        bank = bank.with_shared_cap(shared);
    }
    let n = cfg.clustering.num_clusters;
    let mut mapping: Vec<usize> = (0..n).map(|c| c % cfg.num_queues).collect();
    let (mut window, mut sizes, mut mapping_scratch): (Vec<WindowStats>, Vec<Option<f64>>, _) =
        (Vec::new(), Vec::new(), Vec::new());

    let mut src = spec.workload.build(spec.link_bps, spec.secs, spec.seed);
    let end = SimTime::from_secs(spec.secs);
    let ns_per_byte = 8e9 / spec.link_bps as f64;
    let mut link_free = SimTime::ZERO;
    let mut next_tick = SimTime::ZERO + period;

    let mut batch: Vec<Packet> = Vec::with_capacity(BATCH);
    let mut rows: Vec<Vec<u32>> = (0..BATCH)
        .map(|_| Vec::with_capacity(features.len()))
        .collect();
    let mut clusters = vec![0usize; BATCH];
    let mut drops = Vec::new();
    let mut pending: Option<Packet> = None;
    let (mut extract_ns, mut assign_ns, mut segments) = (0.0f64, 0.0f64, 0u64);
    let mut tick_ns: Vec<f64> = Vec::new();
    let enqueue = CallStats::default();
    let mut sampler = Sampler::new(0x5EED_0200);
    let mut pkts = 0u64;

    let mut done = false;
    while !done {
        // A batch never straddles a control tick: the engine runs the
        // tick before any packet arriving at or after it.
        batch.clear();
        while batch.len() < BATCH {
            match pending.take().or_else(|| src.next_packet()) {
                Some(p) if p.arrival >= end => done = true,
                Some(p) if p.arrival >= next_tick => pending = Some(p),
                Some(p) => {
                    batch.push(p);
                    continue;
                }
                None => done = true,
            }
            break;
        }
        if !batch.is_empty() {
            let t0 = Instant::now();
            for (p, row) in batch.iter().zip(rows.iter_mut()) {
                features.extract_into(p, row);
            }
            let t1 = Instant::now();
            for ((p, row), c) in batch.iter().zip(&rows).zip(clusters.iter_mut()) {
                *c = clusterer.assign_values(row, p.size);
            }
            let t2 = Instant::now();
            extract_ns += (t1 - t0).as_nanos() as f64;
            assign_ns += (t2 - t1).as_nanos() as f64;
            segments += 1;
            pkts += batch.len() as u64;

            for (p, &c) in batch.drain(..).zip(&clusters) {
                while link_free <= p.arrival {
                    let Some(out) = bank.dequeue(link_free) else {
                        break;
                    };
                    link_free +=
                        SimDuration::from_nanos((f64::from(out.size) * ns_per_byte) as u64);
                }
                if bank.is_empty() && link_free < p.arrival {
                    link_free = p.arrival;
                }
                let (queue, at) = (mapping[c], p.arrival);
                sampled(&enqueue, &mut sampler, || {
                    bank.enqueue_to(queue, p, at, &mut drops)
                });
                drops.clear();
            }
        }
        if let Some(p) = &pending {
            // Every tick the engine would run up to this arrival.
            while next_tick <= p.arrival {
                clusterer.take_window_into(&mut window);
                sizes.clear();
                sizes.extend((0..window.len()).map(|i| clusterer.cost(i)));
                let t = Instant::now();
                controller.assign_queues_into(&window, &sizes, &mut mapping_scratch);
                tick_ns.push(t.elapsed().as_nanos() as f64);
                std::mem::swap(&mut mapping, &mut mapping_scratch);
                if cfg.reset_on_poll {
                    clusterer.reset_clusters();
                }
                next_tick += period;
            }
        }
    }

    let per_pkt = |ns: f64| {
        let corrected = ns - segments as f64 * timer.interval_ns;
        corrected.max(0.0) / pkts.max(1) as f64
    };
    for t in &mut tick_ns {
        *t = (*t - timer.interval_ns).max(0.0);
    }
    Some(ReplayStats {
        pkts,
        extract_ns_per_pkt: per_pkt(extract_ns),
        assign_ns_per_pkt: per_pkt(assign_ns),
        assign_queues_us: median(&mut tick_ns) / 1e3,
        enqueue_ns_per_pkt: enqueue.mean_ns(timer),
    })
}
