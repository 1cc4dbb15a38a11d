//! Measured command rates: the shape in which the runtime's profile
//! store reports what runs observed and the simulator's cost model
//! consumes it. They live here because core is the only crate both
//! sides can name.

use std::collections::HashMap;

/// A decay-merged throughput observation for one command, as the
/// runtime's profile store reports it and the simulator's cost model
/// consumes it.
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
