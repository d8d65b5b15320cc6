//! Constant- and variable-bit-rate aggregates.
//!
//! The ACC experiments (paper Fig. 2/3) schedule four constant-bit-rate
//! aggregates plus one variable-rate "attack" aggregate over a bottleneck.
//! [`CbrSource`] produces a fixed-rate packet train; [`RampSource`]
//! produces a piecewise-linear rate profile (the attack of Fig. 2 ramps up
//! at t=13 s and back down at t=25 s).

use accturbo_netsim::{ClassId, Packet, PacketSource, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Header template stamped onto every generated packet.
#[derive(Debug, Clone)]
pub struct FlowTemplate {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// IP protocol.
    pub proto: u8,
    /// Time-to-live.
    pub ttl: u8,
    /// Packet size in bytes.
    pub size: u32,
    /// Ground-truth class.
    pub class: ClassId,
}

impl FlowTemplate {
    /// A UDP flow of 1000-byte packets with the given endpoints and class.
    pub fn udp(src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16, class: ClassId) -> Self {
        FlowTemplate {
            src,
            dst,
            sport,
            dport,
            proto: accturbo_netsim::packet::proto::UDP,
            ttl: 64,
            size: 1000,
            class,
        }
    }

    /// Sets the packet size.
    pub fn with_size(mut self, size: u32) -> Self {
        self.size = size;
        self
    }

    fn stamp(&self, arrival: SimTime) -> Packet {
        Packet::new(arrival)
            .with_size(self.size)
            .with_src(self.src)
            .with_dst(self.dst)
            .with_ports(self.sport, self.dport)
            .with_proto(self.proto)
            .with_ttl(self.ttl)
            .with_class(self.class)
    }
}

/// A constant-bit-rate packet train between `start` and `end`.
#[derive(Debug, Clone)]
pub struct CbrSource {
    template: FlowTemplate,
    gap: SimDuration,
    next: SimTime,
    end: SimTime,
}

impl CbrSource {
    /// Creates a CBR source at `rate_bps` from `start` to `end`. An empty
    /// window (`end <= start`) yields no packets.
    ///
    /// Panics when the rate is zero or too high for the packet size.
    pub fn new(template: FlowTemplate, rate_bps: u64, start: SimTime, end: SimTime) -> Self {
        assert!(rate_bps > 0, "CBR rate must be positive");
        let gap = SimDuration::from_nanos(
            (template.size as u128 * 8 * 1_000_000_000 / rate_bps as u128) as u64,
        );
        assert!(!gap.is_zero(), "CBR rate too high for packet size");
        CbrSource {
            template,
            gap,
            next: start,
            end,
        }
    }
}

impl PacketSource for CbrSource {
    fn next_packet(&mut self) -> Option<Packet> {
        if self.next >= self.end {
            return None;
        }
        let pkt = self.template.stamp(self.next);
        self.next += self.gap;
        Some(pkt)
    }
}

/// One segment of a piecewise-constant rate profile.
#[derive(Debug, Clone, Copy)]
pub struct RateStep {
    /// Segment start time.
    pub at: SimTime,
    /// Rate from `at` until the next step, in bits per second (0 = silent).
    pub rate_bps: u64,
}

/// A variable-rate packet train following a piecewise-constant profile.
#[derive(Debug, Clone)]
pub struct RampSource {
    template: FlowTemplate,
    steps: Vec<RateStep>,
    next: SimTime,
    end: SimTime,
}

impl RampSource {
    /// Creates a source following `steps` (sorted by time) until `end`.
    ///
    /// Panics when `steps` is empty or unsorted.
    pub fn new(template: FlowTemplate, steps: Vec<RateStep>, end: SimTime) -> Self {
        assert!(
            !steps.is_empty(),
            "rate profile must have at least one step"
        );
        assert!(
            steps.windows(2).all(|w| w[0].at < w[1].at),
            "rate profile must be strictly time-sorted"
        );
        let next = steps[0].at;
        RampSource {
            template,
            steps,
            next,
            end,
        }
    }

    /// The rate in force at time `t`.
    fn rate_at(&self, t: SimTime) -> u64 {
        self.steps
            .iter()
            .rev()
            .find(|s| s.at <= t)
            .map(|s| s.rate_bps)
            .unwrap_or(0)
    }

    /// Start of the first segment after `t` with a nonzero rate.
    fn next_active(&self, t: SimTime) -> Option<SimTime> {
        self.steps
            .iter()
            .find(|s| s.at > t && s.rate_bps > 0)
            .map(|s| s.at)
    }
}

impl PacketSource for RampSource {
    fn next_packet(&mut self) -> Option<Packet> {
        loop {
            if self.next >= self.end {
                return None;
            }
            let rate = self.rate_at(self.next);
            if rate == 0 {
                // Jump to the next active segment.
                self.next = self.next_active(self.next)?;
                continue;
            }
            let pkt = self.template.stamp(self.next);
            let gap = SimDuration::from_nanos(
                (self.template.size as u128 * 8 * 1_000_000_000 / rate as u128) as u64,
            );
            self.next += gap.max(SimDuration::from_nanos(1));
            return Some(pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template(class: u16) -> FlowTemplate {
        FlowTemplate::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 1, 1),
            1000,
            80,
            ClassId(class),
        )
    }

    #[test]
    fn cbr_hits_target_rate() {
        // 1 Mbps of 1000-byte packets for 1 s = 125 packets.
        let mut src = CbrSource::new(template(1), 1_000_000, SimTime::ZERO, SimTime::from_secs(1));
        let pkts: Vec<Packet> = std::iter::from_fn(|| src.next_packet()).collect();
        assert_eq!(pkts.len(), 125);
        assert!(pkts.windows(2).all(|w| w[0].arrival < w[1].arrival));
    }

    #[test]
    fn cbr_respects_window() {
        let mut src = CbrSource::new(
            template(1),
            1_000_000,
            SimTime::from_secs(2),
            SimTime::from_secs(3),
        );
        let pkts: Vec<Packet> = std::iter::from_fn(|| src.next_packet()).collect();
        assert!(pkts.first().unwrap().arrival >= SimTime::from_secs(2));
        assert!(pkts.last().unwrap().arrival < SimTime::from_secs(3));
    }

    #[test]
    fn ramp_changes_rate_at_steps() {
        // 1 Mbps for 1 s, then 4 Mbps for 1 s.
        let mut src = RampSource::new(
            template(5),
            vec![
                RateStep {
                    at: SimTime::ZERO,
                    rate_bps: 1_000_000,
                },
                RateStep {
                    at: SimTime::from_secs(1),
                    rate_bps: 4_000_000,
                },
            ],
            SimTime::from_secs(2),
        );
        let pkts: Vec<Packet> = std::iter::from_fn(|| src.next_packet()).collect();
        let first_second = pkts
            .iter()
            .filter(|p| p.arrival < SimTime::from_secs(1))
            .count();
        let second_second = pkts.len() - first_second;
        assert_eq!(first_second, 125);
        assert_eq!(second_second, 500);
    }

    #[test]
    fn ramp_zero_rate_silences_output() {
        let mut src = RampSource::new(
            template(5),
            vec![
                RateStep {
                    at: SimTime::ZERO,
                    rate_bps: 1_000_000,
                },
                RateStep {
                    at: SimTime::from_secs(1),
                    rate_bps: 0,
                },
                RateStep {
                    at: SimTime::from_secs(2),
                    rate_bps: 1_000_000,
                },
            ],
            SimTime::from_secs(3),
        );
        let pkts: Vec<Packet> = std::iter::from_fn(|| src.next_packet()).collect();
        assert!(pkts
            .iter()
            .all(|p| p.arrival < SimTime::from_secs(1) || p.arrival >= SimTime::from_secs(2)));
        assert_eq!(pkts.len(), 250);
    }

    #[test]
    fn ramp_ending_in_silence_terminates() {
        let mut src = RampSource::new(
            template(5),
            vec![
                RateStep {
                    at: SimTime::ZERO,
                    rate_bps: 1_000_000,
                },
                RateStep {
                    at: SimTime::from_secs(1),
                    rate_bps: 0,
                },
            ],
            SimTime::from_secs(10),
        );
        let pkts: Vec<Packet> = std::iter::from_fn(|| src.next_packet()).collect();
        assert_eq!(pkts.len(), 125);
    }

    #[test]
    #[should_panic(expected = "strictly time-sorted")]
    fn ramp_rejects_unsorted_steps() {
        let _ = RampSource::new(
            template(5),
            vec![
                RateStep {
                    at: SimTime::from_secs(1),
                    rate_bps: 1,
                },
                RateStep {
                    at: SimTime::ZERO,
                    rate_bps: 1,
                },
            ],
            SimTime::from_secs(2),
        );
    }
}
