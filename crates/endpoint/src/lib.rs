//! Endpoint collective engines: the resource pipelines a collective's
//! messages traverse before reaching (and after leaving) the fabric.
//!
//! The paper's central observation (Section III) is that the *endpoint*,
//! not the fabric, limits network utilization: in today's systems the NPU's
//! own SMs read gradients from HBM, reduce them, and push them across the
//! NPU-AFI bus, stealing compute and memory bandwidth from training. ACE
//! replaces that pipeline with a dedicated engine beside the AFI.
//!
//! Three [`CollectiveEngine`] implementations reproduce the evaluated
//! endpoint flavors (Table VI):
//!
//! * [`BaselineEngine`] — SM-driven: every step bounces through the HBM
//!   comm partition and an SM drive-bandwidth cap; multi-hop traffic is
//!   written to and re-read from intermediate endpoints' memory.
//! * [`AceEndpoint`] — chunk data is DMA'd into ACE's SRAM once, reduced
//!   on ACE ALUs, forwarded from SRAM, and written back once.
//! * [`IdealEndpoint`] — processes everything in one cycle; the upper
//!   bound used to normalize Figs. 5, 10 and 11.
//!
//! # Example
//!
//! ```
//! use ace_endpoint::{BaselineEngine, BaselineParams, CollectiveEngine};
//! use ace_simcore::SimTime;
//!
//! let mut ep = BaselineEngine::new(BaselineParams::custom(450.0, 6));
//! let ready = ep.fetch_and_send(SimTime::ZERO, 8 * 1024, 0);
//! assert!(ready.cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ace;
mod baseline;
mod ideal;
mod traits;

pub use ace::{AceEndpoint, AceEndpointParams};
pub use baseline::{BaselineEngine, BaselineParams};
pub use ideal::IdealEndpoint;
pub use traits::CollectiveEngine;
