//! Measured command rates: the shape in which a caller that timed
//! commands hands the simulator's cost model what it observed (the
//! benchmark harness derives them from its per-node accounting and
//! names them by this path).

use std::collections::HashMap;

/// A throughput observation for one command, as the simulator's cost
/// model consumes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredRate {
    /// Observed processing rate in MB/s of input consumed.
    pub mb_per_s: f64,
    /// Observed bytes-out / bytes-in ratio.
    pub out_ratio: f64,
    /// Total observation weight (decayed sample mass) behind the
    /// estimate — pricing trusts heavier estimates more.
    pub weight: f64,
}

/// Measured rates keyed by command name (`argv[0]`).
pub type MeasuredRates = HashMap<String, MeasuredRate>;
