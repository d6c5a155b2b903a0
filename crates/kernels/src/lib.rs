//! Injectable Rust ports of the six SC'17 benchmarks.
pub mod clamr;
pub mod dgemm;
mod fast;
pub mod hotspot;
pub mod lavamd;
pub mod lud;
pub mod nw;
pub mod par;
pub mod quantize;
pub mod registry;

pub use registry::{build, golden, Benchmark, SizeClass};
