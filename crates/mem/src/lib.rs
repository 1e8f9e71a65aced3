//! Endpoint memory and bus model.
//!
//! Section III of the paper identifies the endpoint's two contended
//! resources: NPU compute cores and **memory bandwidth**. The evaluated
//! system configurations (Table VI) statically partition the 900 GB/s
//! NPU-MEM bandwidth between training compute and collective communication
//! (e.g. BaselineCommOpt gives communication 450 GB/s, BaselineCompOpt and
//! ACE give it 128 GB/s). This crate provides that partitioned HBM model
//! plus the 500 GB/s NPU-AFI bus with per-transaction scheduling overhead.
//!
//! # Example
//!
//! ```
//! use ace_mem::{EndpointMemory, MemoryParams};
//! use ace_simcore::SimTime;
//!
//! let mut mem = EndpointMemory::new(MemoryParams::paper_default(128.0));
//! // Communication reads contend only for the comm partition.
//! let g = mem.comm_read(SimTime::ZERO, 1 << 20);
//! assert!(g.end > g.start);
//! // The compute side sees the remaining 772 GB/s.
//! assert!((mem.compute_gbps() - 772.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod hbm;

pub use bus::{AfiBus, BusParams};
pub use hbm::{EndpointMemory, MemoryParams, HBM_TOTAL_GBPS};
