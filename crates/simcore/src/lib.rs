//! Discrete-event simulation primitives shared by every crate in the ACE
//! reproduction.
//!
//! The simulator models a distributed deep-learning training platform at
//! cycle granularity. Everything in the platform that can be contended for —
//! memory bandwidth, the NPU-AFI bus, streaming multiprocessors driving the
//! network, fabric links, ACE's SRAM ports and ALUs — is expressed as a
//! [`BandwidthServer`] or a [`SlotServer`]: FIFO resources that serialize
//! requests and report when each request starts and finishes. Contention and
//! queuing delays *emerge* from server serialization rather than being
//! painted on afterwards.
//!
//! # Example
//!
//! ```
//! use ace_simcore::{BandwidthServer, Frequency, SimTime};
//!
//! // A 900 GB/s HBM stack at the paper's 1245 MHz NPU clock.
//! let freq = Frequency::from_mhz(1245.0);
//! let mut hbm = BandwidthServer::new(freq.bytes_per_cycle(900.0));
//!
//! // Two back-to-back 1 MiB reads serialize behind each other.
//! let first = hbm.request(SimTime::ZERO, 1 << 20);
//! let second = hbm.request(SimTime::ZERO, 1 << 20);
//! assert!(second.start > first.start);
//! assert!(second.end.cycles() >= 2 * first.start.cycles());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod rng;
mod server;
mod stats;
mod time;

pub use event::EventQueue;
pub use rng::SplitMix64;
pub use server::{BandwidthServer, Grant, SlotServer};
pub use stats::{BucketCursor, TimeSeries};
pub use time::{Frequency, SimTime};

/// The paper's NPU clock frequency: 1245 MHz (Section V).
pub const NPU_FREQ_MHZ: f64 = 1245.0;

/// Returns the platform-default NPU frequency used across the workspace.
///
/// ```
/// let f = ace_simcore::npu_frequency();
/// assert!((f.hz() - 1.245e9).abs() < 1.0);
/// ```
pub fn npu_frequency() -> Frequency {
    Frequency::from_mhz(NPU_FREQ_MHZ)
}
