//! Timing wrappers around the public `PacketSource` and `Switch` traits.
//!
//! One `Instant::now()` + `elapsed()` pair costs about as much as a FIFO
//! ingress call, so timing every call would triple a FIFO run. Calls are
//! therefore *sampled*: on average one call in [`SAMPLE_EVERY`] is timed,
//! at pseudo-random gaps so periodic traffic cannot alias with the
//! sampler, and every call is counted. A layer's busy time is its call
//! count times the mean sampled duration, after subtracting the timer's
//! own share of each sample ([`TimerCost`]). Rare calls (control ticks,
//! pushback refreshes) are timed every time.

use accturbo_netsim::{AggLimit, Dropped, FeatureExtractor, Packet, PacketSource, SimTime, Switch};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Mean gap between two timed calls of a sampled method.
pub const SAMPLE_EVERY: u64 = 32;

/// What reading the clock costs, measured on this host at start-up.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// What a timed interval with nothing in it reads, in ns: subtracted
    /// from every sample.
    pub interval_ns: f64,
    /// What one `now()` + `elapsed()` pair adds to the wall time of the
    /// code it surrounds, in ns: subtracted once per sample from the
    /// traced wall time.
    pub pair_ns: f64,
}

impl TimerCost {
    /// Measures both costs. The interval cost is the mean of 20 000 empty
    /// intervals below their 90th percentile, so interrupts do not count;
    /// the pair cost is the median of nine batched trials.
    pub fn calibrate() -> TimerCost {
        let mut empty: Vec<f64> = (0..20_000)
            .map(|_| {
                let t0 = Instant::now();
                black_box(t0.elapsed()).as_nanos() as f64
            })
            .collect();
        let cut = crate::stats::percentile(&mut empty, 90.0);
        let kept: Vec<f64> = empty.into_iter().filter(|&ns| ns <= cut).collect();
        const PAIRS: u32 = 20_000;
        let mut pairs: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..PAIRS {
                    let t0 = black_box(Instant::now());
                    black_box(t0.elapsed());
                }
                t.elapsed().as_nanos() as f64 / f64::from(PAIRS)
            })
            .collect();
        TimerCost {
            interval_ns: kept.iter().sum::<f64>() / kept.len() as f64,
            pair_ns: crate::stats::median(&mut pairs),
        }
    }
}

/// Decides which calls get timed: a deterministic xorshift draws gaps
/// uniformly from 1..=2·[`SAMPLE_EVERY`]−1.
#[derive(Debug, Clone)]
pub struct Sampler {
    state: u64,
    countdown: u64,
}

impl Sampler {
    /// A sampler with its own gap sequence.
    pub fn new(seed: u64) -> Sampler {
        let mut s = Sampler {
            state: seed | 1,
            countdown: 1,
        };
        s.countdown = s.gap();
        s
    }

    fn gap(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        1 + self.state % (2 * SAMPLE_EVERY - 1)
    }

    /// True when this call should be timed.
    #[inline]
    pub fn hit(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.gap();
            true
        } else {
            false
        }
    }
}

/// Call count and timed samples of one method.
#[derive(Debug, Default)]
pub struct CallStats {
    /// Every call.
    pub calls: Cell<u64>,
    /// Raw durations of the timed calls, in ns (timer share included).
    pub samples: RefCell<Vec<u32>>,
}

impl CallStats {
    #[inline]
    fn count(&self) {
        self.calls.set(self.calls.get() + 1);
    }

    #[inline]
    fn record(&self, t0: Instant) {
        let ns = t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
        self.samples.borrow_mut().push(ns);
    }

    /// Number of timed calls.
    pub fn timed(&self) -> u64 {
        self.samples.borrow().len() as u64
    }

    /// Sampled durations with the timer's share removed, in ns.
    pub fn corrected(&self, timer: &TimerCost) -> Vec<f64> {
        self.samples
            .borrow()
            .iter()
            .map(|&ns| (f64::from(ns) - timer.interval_ns).max(0.0))
            .collect()
    }

    /// Mean corrected duration of one call, in ns (0 without samples).
    pub fn mean_ns(&self, timer: &TimerCost) -> f64 {
        let c = self.corrected(timer);
        if c.is_empty() {
            0.0
        } else {
            c.iter().sum::<f64>() / c.len() as f64
        }
    }

    /// Estimated time inside the method over all calls, in ns. For a
    /// method timed on every call this is the corrected sum.
    pub fn busy_ns(&self, timer: &TimerCost) -> f64 {
        self.calls.get() as f64 * self.mean_ns(timer)
    }
}

/// Times `f` when `sampler` says so, always counting the call.
#[inline]
pub fn sampled<R>(stats: &CallStats, sampler: &mut Sampler, f: impl FnOnce() -> R) -> R {
    stats.count();
    if sampler.hit() {
        let t0 = Instant::now();
        let r = f();
        stats.record(t0);
        r
    } else {
        f()
    }
}

/// Times `f` on every call.
#[inline]
fn timed<R>(stats: &CallStats, f: impl FnOnce() -> R) -> R {
    stats.count();
    let t0 = Instant::now();
    let r = f();
    stats.record(t0);
    r
}

/// A [`PacketSource`] whose `next_packet` calls are sampled.
pub struct TimedSource<S> {
    inner: S,
    sampler: Sampler,
    /// `next_packet` calls and samples.
    pub next: CallStats,
}

impl<S: PacketSource> TimedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            sampler: Sampler::new(0x5EED_0001),
            next: CallStats::default(),
        }
    }
}

impl<S: PacketSource> PacketSource for TimedSource<S> {
    fn next_packet(&mut self) -> Option<Packet> {
        let inner = &mut self.inner;
        sampled(&self.next, &mut self.sampler, || inner.next_packet())
    }
}

/// What a [`TimedSwitch`] saw. Shared through an `Rc` because the
/// topology engine takes its switches as `Box<dyn Switch>`.
#[derive(Debug, Default)]
pub struct SwitchProbe {
    /// `ingress` / `ingress_featured` calls and samples.
    pub ingress: CallStats,
    /// `dequeue` calls and samples.
    pub dequeue: CallStats,
    /// `control_tick` calls, each timed.
    pub control: CallStats,
    /// `pushback_limits` calls, each timed.
    pub pushback: CallStats,
    /// Every other trait call (`backlog_pkts`, `control_missed`, …).
    pub other_calls: Cell<u64>,
    /// Packets the switch handed to the link.
    pub dequeued: Cell<u64>,
    /// Drops pushed during `ingress`.
    pub ingress_drops: Cell<u64>,
    /// Largest backlog seen after an `ingress`.
    pub max_backlog: Cell<u64>,
}

impl SwitchProbe {
    /// Every call the event loop made into the switch.
    pub fn calls(&self) -> u64 {
        self.ingress.calls.get()
            + self.dequeue.calls.get()
            + self.control.calls.get()
            + self.pushback.calls.get()
            + self.other_calls.get()
    }

    /// Number of timed calls (each cost one timer pair).
    pub fn timed(&self) -> u64 {
        self.ingress.timed() + self.dequeue.timed() + self.control.timed() + self.pushback.timed()
    }

    /// Estimated time inside the switch, in ns.
    pub fn busy_ns(&self, timer: &TimerCost) -> f64 {
        [&self.ingress, &self.dequeue, &self.control, &self.pushback]
            .iter()
            .map(|s| s.busy_ns(timer))
            .sum()
    }
}

/// A [`Switch`] that delegates every call to `inner` and records into a
/// shared [`SwitchProbe`].
pub struct TimedSwitch {
    inner: Box<dyn Switch>,
    sampler: Sampler,
    probe: Rc<SwitchProbe>,
}

impl TimedSwitch {
    /// Wraps `inner`; `seed` picks the sampler's gap sequence.
    pub fn new(inner: Box<dyn Switch>, seed: u64) -> (TimedSwitch, Rc<SwitchProbe>) {
        let probe = Rc::new(SwitchProbe::default());
        let sw = TimedSwitch {
            inner,
            sampler: Sampler::new(seed),
            probe: Rc::clone(&probe),
        };
        (sw, probe)
    }

    #[inline]
    fn after_ingress(&self, drops_before: usize, drops: &[Dropped]) {
        let p = &self.probe;
        p.ingress_drops
            .set(p.ingress_drops.get() + (drops.len() - drops_before) as u64);
        let backlog = self.inner.backlog_pkts() as u64;
        if backlog > p.max_backlog.get() {
            p.max_backlog.set(backlog);
        }
    }
}

impl Switch for TimedSwitch {
    fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        let before = drops.len();
        let inner = &mut self.inner;
        sampled(&self.probe.ingress, &mut self.sampler, || {
            inner.ingress(pkt, now, drops)
        });
        self.after_ingress(before, drops);
    }

    fn ingress_featured(
        &mut self,
        pkt: Packet,
        features: &[u32],
        now: SimTime,
        drops: &mut Vec<Dropped>,
    ) {
        let before = drops.len();
        let inner = &mut self.inner;
        sampled(&self.probe.ingress, &mut self.sampler, || {
            inner.ingress_featured(pkt, features, now, drops)
        });
        self.after_ingress(before, drops);
    }

    fn feature_extractor(&self) -> Option<FeatureExtractor> {
        self.probe.other_calls.set(self.probe.other_calls.get() + 1);
        self.inner.feature_extractor()
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        let inner = &mut self.inner;
        let pkt = sampled(&self.probe.dequeue, &mut self.sampler, || {
            inner.dequeue(now)
        });
        if pkt.is_some() {
            self.probe.dequeued.set(self.probe.dequeued.get() + 1);
        }
        pkt
    }

    fn backlog_pkts(&self) -> usize {
        self.probe.other_calls.set(self.probe.other_calls.get() + 1);
        self.inner.backlog_pkts()
    }

    fn control_tick(&mut self, now: SimTime) {
        let inner = &mut self.inner;
        timed(&self.probe.control, || inner.control_tick(now));
    }

    fn control_missed(&mut self, now: SimTime) {
        self.probe.other_calls.set(self.probe.other_calls.get() + 1);
        self.inner.control_missed(now);
    }

    fn pushback_limits(&mut self, now: SimTime, out: &mut Vec<AggLimit>) {
        let inner = &mut self.inner;
        timed(&self.probe.pushback, || inner.pushback_limits(now, out));
    }
}
