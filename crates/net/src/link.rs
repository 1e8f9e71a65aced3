//! Link model: per-port FIFO serialization with propagation latency.

use std::fmt;

use ace_simcore::{BandwidthServer, Frequency, Grant, SimTime};

/// The two physical link technologies in the platform (Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Silicon-interposer intra-package link: 200 GB/s, 90-cycle latency.
    IntraPackage,
    /// NVLink-class inter-package link: 25 GB/s, 500-cycle latency.
    InterPackage,
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkClass::IntraPackage => f.write_str("intra-package"),
            LinkClass::InterPackage => f.write_str("inter-package"),
        }
    }
}

/// Physical parameters of one link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Peak bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Propagation latency in cycles.
    pub latency_cycles: u64,
    /// Achievable fraction of peak bandwidth (Table V: 94 %).
    pub efficiency: f64,
}

impl LinkParams {
    /// Table V parameters for `class`.
    pub fn paper_default(class: LinkClass) -> LinkParams {
        match class {
            LinkClass::IntraPackage => LinkParams {
                bandwidth_gbps: 200.0,
                latency_cycles: 90,
                efficiency: 0.94,
            },
            LinkClass::InterPackage => LinkParams {
                bandwidth_gbps: 25.0,
                latency_cycles: 500,
                efficiency: 0.94,
            },
        }
    }

    /// Effective bandwidth after the efficiency derating, in GB/s.
    pub fn effective_gbps(&self) -> f64 {
        self.bandwidth_gbps * self.efficiency
    }
}

/// One egress port of a node, identified by its dense per-node index.
///
/// On a torus, dimension `d`'s positive-direction port is index `2d` and
/// its negative-direction port `2d + 1` — so on the 3-dimension torus the
/// six ports are `local±`, `vertical±`, `horizontal±` in the paper's
/// order. Other topologies lay out their own ports (a switch has a single
/// uplink at index 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Port {
    idx: u8,
}

impl Port {
    /// The port at dense index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` does not fit the index width.
    pub fn from_index(idx: usize) -> Port {
        assert!(idx <= u8::MAX as usize, "port index {idx} out of range");
        Port { idx: idx as u8 }
    }

    /// Dense per-node index for table lookups.
    pub fn index(self) -> usize {
        self.idx as usize
    }
}

impl fmt::Display for Port {
    /// `p{index}` on every fabric, the form trace link names use.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.idx)
    }
}

/// A unidirectional link: a bandwidth server plus propagation latency.
#[derive(Debug, Clone)]
pub struct Link {
    class: LinkClass,
    params: LinkParams,
    server: BandwidthServer,
}

impl Link {
    /// Creates a link of `class` with `params` under NPU clock `freq`.
    pub fn new(class: LinkClass, params: LinkParams, freq: Frequency) -> Link {
        let bpc = freq.bytes_per_cycle(params.effective_gbps());
        Link {
            class,
            params,
            server: BandwidthServer::new(bpc),
        }
    }

    /// The link's class.
    pub fn class(&self) -> LinkClass {
        self.class
    }

    /// The link's physical parameters.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// Serializes `bytes` onto the wire starting no earlier than `now`.
    /// The returned grant covers wire occupancy; the message is available
    /// at the downstream node at `grant.end + latency`.
    pub fn transmit(&mut self, now: SimTime, bytes: u64) -> Grant {
        self.server.request(now, bytes)
    }

    /// Arrival time at the downstream node for a transmission grant.
    pub fn arrival(&self, grant: Grant) -> SimTime {
        grant.end + self.params.latency_cycles
    }

    /// Total bytes carried.
    pub fn bytes_carried(&self) -> u64 {
        self.server.bytes_served()
    }

    /// Cycles the wire spent busy.
    pub fn busy_cycles(&self) -> f64 {
        self.server.busy_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_simcore::npu_frequency;

    #[test]
    fn link_class_by_dimension() {
        // A torus's dimension 0 is the intra-package ring; every further
        // dimension rides inter-package links.
        use crate::{Topology, TopologySpec, Torus};
        let torus = Torus::new(TopologySpec::torus3(4, 2, 2).unwrap());
        let classes: Vec<LinkClass> = torus.dims().iter().map(|d| d.class).collect();
        assert_eq!(
            classes,
            [
                LinkClass::IntraPackage,
                LinkClass::InterPackage,
                LinkClass::InterPackage
            ]
        );
    }

    #[test]
    fn paper_params_match_table_v() {
        let intra = LinkParams::paper_default(LinkClass::IntraPackage);
        assert_eq!(intra.bandwidth_gbps, 200.0);
        assert_eq!(intra.latency_cycles, 90);
        let inter = LinkParams::paper_default(LinkClass::InterPackage);
        assert_eq!(inter.bandwidth_gbps, 25.0);
        assert_eq!(inter.latency_cycles, 500);
        assert!((inter.effective_gbps() - 23.5).abs() < 1e-9);
    }

    #[test]
    fn port_indices_are_dense_and_unique() {
        for idx in 0..=u8::MAX as usize {
            assert_eq!(Port::from_index(idx).index(), idx);
        }
    }

    #[test]
    fn port_display() {
        assert_eq!(Port::from_index(0).to_string(), "p0");
        assert_eq!(Port::from_index(5).to_string(), "p5");
        assert_eq!(Port::from_index(9).to_string(), "p9");
    }

    #[test]
    fn transmit_serializes_and_adds_latency() {
        let freq = npu_frequency();
        let params = LinkParams::paper_default(LinkClass::InterPackage);
        let mut link = Link::new(LinkClass::InterPackage, params, freq);
        let g1 = link.transmit(SimTime::ZERO, 8 * 1024);
        let g2 = link.transmit(SimTime::ZERO, 8 * 1024);
        // Second message queues behind the first.
        assert!(g2.start >= g1.start);
        assert!(g2.end.cycles() >= 2 * (g1.end.cycles() / 2));
        // Arrival adds 500 cycles of propagation.
        assert_eq!(link.arrival(g1), g1.end + 500);
        assert_eq!(link.bytes_carried(), 16 * 1024);
    }

    #[test]
    fn intra_link_is_faster_than_inter() {
        let freq = npu_frequency();
        let mut intra = Link::new(
            LinkClass::IntraPackage,
            LinkParams::paper_default(LinkClass::IntraPackage),
            freq,
        );
        let mut inter = Link::new(
            LinkClass::InterPackage,
            LinkParams::paper_default(LinkClass::InterPackage),
            freq,
        );
        let gi = intra.transmit(SimTime::ZERO, 64 * 1024);
        let ge = inter.transmit(SimTime::ZERO, 64 * 1024);
        assert!(gi.end < ge.end, "200 GB/s must beat 25 GB/s");
    }

    #[test]
    fn utilization_reflects_busy_time() {
        let freq = npu_frequency();
        let mut link = Link::new(
            LinkClass::IntraPackage,
            LinkParams::paper_default(LinkClass::IntraPackage),
            freq,
        );
        let g = link.transmit(SimTime::ZERO, 1 << 20);
        // The grant rounds the wire time up to whole cycles.
        let busy = link.busy_cycles();
        let end = g.end.cycles() as f64;
        assert!(
            busy > end - 1.0 && busy <= end,
            "busy {busy} for a grant ending at {end}"
        );
    }
}
