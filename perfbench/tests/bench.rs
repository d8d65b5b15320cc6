//! The benchmark's own tests. They run every workload at full length, so
//! run them optimized:
//!
//!     cargo test --release --manifest-path perfbench/Cargo.toml

use accturbo_experiments::spec::ScenarioSpec;
use accturbo_netsim::Packet;
use accturbo_perfbench::check::{self, summary};
use accturbo_perfbench::metrics::{self, END_TO_END, PER_LAYER};
use accturbo_perfbench::probe::TimerCost;
use accturbo_perfbench::stats::median;
use accturbo_perfbench::traced;
use accturbo_perfbench::workloads::WORKLOADS;
use std::sync::Mutex;

/// Held by the tests that run simulations, so a timing check never
/// shares the two cores with another test's simulation.
static SIMULATIONS: Mutex<()> = Mutex::new(());

/// A seed no workload was tuned or recorded at.
const HELD_OUT_SEED: u64 = 0xBE7C;

/// Traced wall time, less the timer reads, must come within this share
/// of the untraced wall time: what is left of the tracing overhead is the
/// wrappers' own bookkeeping (call counters, the sampler, a backlog read
/// per ingress), which the split books as event-loop time. Measured: 1–7%
/// on `fig2_accturbo`, 9–21% on `star4_pushback`, whose five wrapped
/// switches see every packet up to twice.
const ACCOUNTING_TOLERANCE: f64 = 0.3;

/// The first 10 000 packets the scenario's source yields.
fn first_packets(spec: &ScenarioSpec) -> Vec<Packet> {
    let mut src = spec.workload.build(spec.link_bps, spec.secs, spec.seed);
    std::iter::from_fn(|| src.next_packet())
        .take(10_000)
        .collect()
}

#[test]
fn traced_run_simulates_exactly_what_the_untraced_run_does() {
    let _serial = SIMULATIONS.lock().unwrap_or_else(|e| e.into_inner());
    for w in WORKLOADS {
        let spec = check::parse(w.sentence, HELD_OUT_SEED).unwrap();
        let plain = check::execute(&spec);
        let traced = traced::run(&spec);
        assert!(plain.conserved(), "{}: untraced run loses packets", w.name);
        assert!(
            traced.outcome.conserved(),
            "{}: traced run loses packets",
            w.name
        );
        assert_eq!(
            summary(&plain),
            summary(&traced.outcome),
            "{}: the wrappers changed the simulation",
            w.name
        );
        assert!(
            plain.result.arrivals > 100_000,
            "{}: too few packets",
            w.name
        );
        let canonical = check::parse(w.sentence, w.canonical_seed).unwrap();
        assert_ne!(
            first_packets(&spec),
            first_packets(&canonical),
            "{}: the seed does not reach the workload",
            w.name
        );
    }
}

#[test]
fn layer_times_and_timer_cost_account_for_the_traced_wall_time() {
    let _serial = SIMULATIONS.lock().unwrap_or_else(|e| e.into_inner());
    let timer = TimerCost::calibrate();
    for name in ["fig2_accturbo", "star4_pushback"] {
        let w = accturbo_perfbench::workloads::find(name).unwrap();
        let spec = check::parse(w.sentence, w.canonical_seed).unwrap();
        check::execute(&spec);
        // Each traced run is compared with the untraced run just before
        // it, so host drift between pairs cancels.
        let mut ratios = Vec::new();
        for _ in 0..9 {
            let t = std::time::Instant::now();
            check::execute(&spec);
            let untraced = t.elapsed().as_nanos() as f64;
            let run = traced::run(&spec);
            let s = metrics::split(&run, &timer);
            assert!(
                s.loop_self_ns > 0.0,
                "{name}: the layers' estimated times exceed the wall time: {s:?}"
            );
            assert!(s.source_ns > 0.0 && s.switches_ns > 0.0, "{name}: {s:?}");
            ratios.push((s.source_ns + s.switches_ns + s.loop_self_ns) / untraced);
        }
        let ratio = median(&mut ratios);
        assert!(
            (ratio - 1.0).abs() <= ACCOUNTING_TOLERANCE,
            "{name}: traced split without timer cost is {ratio:.3}x the untraced wall time"
        );
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_and_workload_names_use_only_letters_digits_underscore_dot_dash() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| m.name)
        .chain(WORKLOADS.iter().map(|w| w.name))
        .collect();
    for (i, name) in names.iter().enumerate() {
        assert!(valid_name(name), "bad name `{name}`");
        assert!(!names[..i].contains(name), "duplicate name `{name}`");
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit `{}`",
            m.unit
        );
    }
    assert!(!valid_name("core.ingress ns") && !valid_name(".x") && !valid_name("a:b"));
}

#[test]
fn benchmark_json_lists_the_same_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    for w in WORKLOADS {
        let why = format!(
            "{}, canonical seed {}: {}",
            w.sentence, w.canonical_seed, w.why
        );
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": \"{why}\"}}", w.name)),
            "BENCHMARK.json lacks workload {} with its sentence and seed",
            w.name
        );
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let better = match m.better {
            metrics::Better::Higher => "higher",
            metrics::Better::Lower => "lower",
        };
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            m.name, m.unit
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let entries = json.matches("{\"name\": ").count();
    assert_eq!(
        entries,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
